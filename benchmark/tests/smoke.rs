//! Runs every workload in `--smoke` mode, traced and untraced, and
//! holds what the binary prints to what `BENCHMARK.json` declares:
//! every declared metric exactly once with its unit, nothing undeclared,
//! the result line's exact shape, and a trace file that loads.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_btr-benchmark");

fn declared(manifest: &Value, section: &str) -> BTreeMap<String, String> {
    manifest
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name/unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn committed_manifest_is_the_rendered_one() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&root).expect("BENCHMARK.json at the repository root");
    let rendered = Command::new(BIN)
        .arg("manifest")
        .output()
        .expect("binary runs");
    assert!(rendered.status.success());
    assert_eq!(
        committed,
        String::from_utf8(rendered.stdout).expect("UTF-8"),
        "regenerate with: btr-benchmark manifest > BENCHMARK.json"
    );
}

#[test]
fn smoke_run_prints_exactly_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let manifest =
        json::parse(&std::fs::read_to_string(root).expect("BENCHMARK.json")).expect("JSON");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 6);

    // One after the other: the live workload wants both cores.
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let want = declared(&manifest, section);
            let run = Command::new(BIN)
                .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
                .args(["--trace", trace, "--smoke", "--out"])
                .arg(&out_dir)
                .output()
                .expect("binary runs");
            let stdout = String::from_utf8(run.stdout).expect("UTF-8");
            let what = format!("{workload} --trace {trace}");
            assert!(
                run.status.success(),
                "{what} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );

            let mut lines: Vec<&str> = stdout.lines().filter(|l| !l.starts_with('#')).collect();
            let result = json::parse(lines.pop().expect("a result line")).expect("result is JSON");
            let mut seen = BTreeMap::new();
            for line in lines {
                let fields: Vec<&str> = line.split(' ').collect();
                let [w, name, value, unit] = fields[..] else {
                    panic!("{what}: malformed metric line '{line}'");
                };
                assert_eq!(w, workload);
                value
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("{what}: '{line}'"));
                assert!(
                    seen.insert(name.to_string(), unit.to_string()).is_none(),
                    "{what}: {name} printed twice"
                );
            }
            assert_eq!(seen, want, "{what}: printed vs declared metrics");

            let keys: Vec<&str> = result
                .as_object()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{what}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{what}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_f64) >= Some(1.0),
                "{what}"
            );
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), want.len(), "{what}");
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{what}: no {name}"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                let value = m.get("value").and_then(Value::as_f64).expect("a number");
                assert!(trace == "1" || value > 0.0, "{what}: {name} = {value}");
            }
        }

        let trace_file = out_dir.join(format!("trace-{workload}.json"));
        let chrome = json::parse(&std::fs::read_to_string(&trace_file).expect("trace file"))
            .expect("trace is JSON");
        let events = chrome
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert!(!spans.is_empty(), "{workload}: empty trace");
        for span in &spans {
            let args = span.get("args").expect("args");
            assert!(args.get("op").and_then(Value::as_f64).is_some());
            // A parent link is null or the id of an earlier span.
            match args.get("parent") {
                Some(Value::Null) => {}
                Some(p) => assert!(p.as_f64() < args.get("id").and_then(Value::as_f64)),
                None => panic!("{workload}: span without a parent field"),
            }
        }
    }
}
