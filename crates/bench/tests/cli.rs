//! The `harness` binary's exit-code contract: 0 on success, 1 when a
//! gate fails, 2 on anything malformed — and never a panic. Error paths
//! and `--list`/`--help` return before any measurement starts, so the
//! debug binary answers in milliseconds; one live replay, paced for a
//! debug build, pins that both substrates fold a multi-hop token to the
//! same record. The design notes and the verify skill may name only the
//! flags `--list` advertises.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run the harness to completion — inside ten seconds: nothing here
/// needs more, and a hang is a failure this reports, not one it waits
/// out.
fn harness(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("harness runs");
    let started = Instant::now();
    while child.try_wait().expect("harness polls").is_none() {
        if started.elapsed() > Duration::from_secs(10) {
            child.kill().expect("harness dies");
            panic!("{args:?} still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().expect("harness output")
}

/// Run `args`, expect exit 2 with nothing on stdout, return stderr.
fn rejected(args: &[&str]) -> String {
    let out = harness(args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    err
}

#[test]
fn unknown_and_retired_commands_exit_2() {
    for cmd in ["e99", "bench", "scale", "obs", "profile"] {
        let err = rejected(&[cmd]);
        assert!(err.contains(&format!("'{cmd}'")), "{err}");
    }
    // The retired commands' flags went with them, and a bad id stops the
    // run before the good one before it has printed anything.
    rejected(&["bench", "500", "--signed"]);
    rejected(&["profile", "--smoke", "--nodes", "1000"]);
    rejected(&["e3", "bench"]);
    rejected(&["all", "e99"]);
}

#[test]
fn no_command_is_usage_on_stderr_and_help_is_usage_on_stdout() {
    assert!(rejected(&[]).starts_with("usage: harness"));
    assert!(rejected(&["--threads", "2"]).starts_with("usage: harness"));
    for flag in ["--help", "-h"] {
        let out = harness(&[flag]);
        assert_eq!(out.status.code(), Some(0));
        assert!(out.stderr.is_empty());
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: harness"));
    }
}

#[test]
fn malformed_flag_values_exit_2() {
    assert!(rejected(&["fuzz", "--budget"]).contains("needs a value"));
    assert!(rejected(&["fuzz", "--budget", "many"]).contains("bad value 'many'"));
    assert!(rejected(&["fuzz", "--budget", "0"]).contains("at least 1"));
    assert!(rejected(&["--threads", "0", "e3"]).contains("at least 1"));
    // The suite and variant-set flags are gone with their settings.
    for flag in ["--auth", "--all-variants"] {
        let err = rejected(&["campaign", flag, "sip"]);
        assert!(
            err.contains(&format!("unknown campaign argument '{flag}'")),
            "{err}"
        );
    }
    // Used to die reserving the schedule table: capacity overflow (exit
    // 101), and an abort on a 177 GB allocation (exit 134).
    for runs in ["18446744073709551615", "100000000000"] {
        assert!(rejected(&["campaign", "--runs", runs]).contains("at most 1000000"));
    }
    // The ceiling bounds the runs executed, cells x schedules x seeds:
    // one run at four billion seeds used to abort on a 6 GiB allocation
    // (exit 134), and 1000000 at three seeds rounds up past it.
    for (runs, seeds) in [("1", "4000000000"), ("1000000", "3")] {
        let err = rejected(&["campaign", "--runs", runs, "--sim-seeds", seeds]);
        assert!(err.contains("runs, at most 1000000"), "{err}");
    }
    // Used to run as one seed, silently.
    assert!(rejected(&["campaign", "--sim-seeds", "0"]).contains("at least 1"));
    // Used to run one schedule per cell and seed, 18 runs, and exit 0.
    assert!(rejected(&["campaign", "--runs", "0"]).contains("--runs must be at least 1"));
    // Used to never return.
    for budget in ["18446744073709551615", "1000001"] {
        assert!(rejected(&["fuzz", "--budget", budget]).contains("at most 1000000"));
    }
    assert!(rejected(&["live", "--pace", "0"]).contains("must be positive"));
    assert!(rejected(&["live", "--pace", "inf"]).contains("must be positive"));
    // Used to never return.
    for pace in ["1e300", "100.5"] {
        assert!(rejected(&["live", "--pace", pace]).contains("at most 100"));
    }
    for cmd in ["live", "campaign", "fuzz"] {
        let err = rejected(&[cmd, "stray"]);
        assert!(
            err.contains(&format!("unknown {cmd} argument 'stray'")),
            "{err}"
        );
        // An unwritable report is found while the arguments are parsed,
        // not after the measurement it would have held.
        let err = rejected(&[cmd, "--out", "/nonexistent/dir/x.json"]);
        assert!(
            err.contains("cannot write /nonexistent/dir/x.json"),
            "{err}"
        );
    }
}

#[test]
fn malformed_replay_tokens_exit_2() {
    // One node; then the three that used to panic in the topology
    // builder (zero bandwidth, and 2^32 truncated to it) or never return
    // (a horizon of u64::MAX); a bound and a fault instant past the
    // replay ceiling; a fault list that names a node twice.
    let tokens = [
        "not a token",
        "w=avionics;t=bus1x100x1;f=1;r=150000;h=100000;me=0;s=1;fl=",
        "w=avionics;t=bus9x0x5;f=1;r=150000;h=700000;me=1000;s=1;fl=",
        "w=avionics;t=bus9x4294967296x5;f=1;r=150000;h=700000;me=1000;s=1;fl=",
        "w=avionics;t=bus9x100000x5;f=1;r=150000;h=18446744073709551615;me=1000;s=1;fl=",
        "w=avionics;t=bus9x100000x5;f=1;r=3600000001;h=700000;me=1000;s=1;fl=",
        "w=avionics;t=bus9x100000x5;f=1;r=150000;h=700000;me=1000;s=1;fl=crash@3600000001@n3",
        "w=avionics;t=bus9x100000x5;f=1;r=150000;h=400000;s=7;\
         fl=commission@42000@n6+crash@60000@n6",
    ];
    for cmd in ["campaign", "live"] {
        for token in tokens {
            assert!(rejected(&[cmd, "--replay", token]).contains("bad replay token"));
        }
    }
    // Each of these used to replay something the token did not say: the
    // removed suite key under HMAC, the unknown key ignored, seed 1 of
    // two seeds. The message names the key.
    let base = "w=avionics;t=bus9x100000x5;f=1;r=150000;h=400000;me=0;s=1;fl=";
    for (token, needle) in [
        (
            format!("{base};a=sip"),
            "key 'a' (the authenticator suite) was removed",
        ),
        (format!("{base};zz=1"), "unknown key 'zz'"),
        (format!("{base};s=2"), "key 's' given twice"),
    ] {
        for cmd in ["campaign", "live"] {
            let err = rejected(&[cmd, "--replay", &token]);
            assert!(err.contains(needle), "{cmd} {token}: {err}");
        }
    }
}

#[test]
fn live_replay_names_the_first_divergence() {
    // The fat-tree token the substrates used to part on (EXPERIMENTS.md
    // "One network model"): the fleet's trace is the simulator's, and both
    // fold it to one record. A debug fleet keeps up with n8's flood at
    // real time: about 1.2 s of work for the 1.1 s paced horizon, inside
    // its half-second grace.
    let token = "w=scada;t=fattree4x1000000x5;f=1;r=400000;h=1080000;me=20000000;\
                 s=7191089600892374487;fl=evidence-spam@169689@n8";
    let out = harness(&["live", "--replay", token, "--pace", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let expected = "  trace matches simulator (168 actuations)\n  schedule evidence-spam \
        (admissible): bad window 0.0 ms (slack to budget 400.0 ms), 0/162 bad outputs, \
        converged: true, convictions: 0\n  no violations\n";
    assert!(stdout.contains(expected), "{stdout}");
}

#[test]
fn a_flag_value_that_spells_a_command_does_not_pick_the_command() {
    // `--out campaign` names a file. Both readings fail fast, each with
    // its own message: fuzz rejects the zero budget, campaign would
    // reject `fuzz` and `--budget` as arguments it does not know.
    let err = rejected(&["fuzz", "--budget", "0", "--out", "campaign"]);
    assert!(err.contains("--budget must be at least 1"), "{err}");
    let err = rejected(&["--threads", "1", "live", "--pace", "0", "--out", "fuzz"]);
    assert!(err.contains("--pace must be positive"), "{err}");
}

#[test]
fn list_names_the_experiments_and_exactly_three_commands() {
    let out = harness(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
    // The first word of every unindented line.
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    assert_eq!(
        listed,
        [
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "a1", "a2", "r1", "live",
            "campaign", "fuzz"
        ]
    );
}

#[test]
fn list_and_help_advertise_the_same_flags() {
    let flags = |args: &[&str]| {
        let out = harness(args);
        let mut flags: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .map(str::to_string)
            .collect();
        flags.sort();
        flags.dedup();
        flags
    };
    let mut list = flags(&["--list"]);
    // The two global flags live only in the usage text.
    list.extend(["--list".to_string(), "--threads".to_string()]);
    list.sort();
    assert_eq!(list, flags(&["--help"]));
    assert!(list.contains(&"--pace".to_string()));
    assert!(!list.contains(&"--signed".to_string()));
}

/// The code in `doc`: inline spans with their line breaks joined, and
/// fenced lines with their `\` continuations joined.
fn code_of(doc: &str) -> Vec<String> {
    let mut code = Vec::new();
    for (i, block) in doc.split("```").enumerate() {
        if i % 2 == 1 {
            code.extend(block.replace("\\\n", " ").lines().map(str::to_string));
            continue;
        }
        let spans = block.split('`').skip(1).step_by(2);
        code.extend(spans.map(|s| s.split_whitespace().collect::<Vec<_>>().join(" ")));
    }
    code
}

#[test]
fn prose_names_only_flags_the_commands_take() {
    // Each command's block of `--list`: its synopsis and description.
    let list = String::from_utf8_lossy(&harness(&["--list"]).stdout).into_owned();
    let block = |cmd: &str| -> String {
        let start = list
            .lines()
            .position(|l| l.split_whitespace().next() == Some(cmd))
            .unwrap_or_else(|| panic!("--list has no {cmd}"));
        let mut lines = list.lines().skip(start);
        let head = lines.next().unwrap_or_default().to_string();
        lines
            .take_while(|l| l.starts_with(' '))
            .fold(head, |acc, l| acc + "\n" + l)
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let mut checked = 0;
    for doc in ["DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(format!("{root}{doc}")).expect("doc reads");
        for code in code_of(&text) {
            let words: Vec<&str> = code.split_whitespace().collect();
            for (i, w) in words.iter().enumerate() {
                if !w.ends_with("harness") {
                    continue;
                }
                // Skip the global flags to the command.
                let mut rest = words[i + 1..].iter().copied();
                let cmd = loop {
                    match rest.next() {
                        Some("--threads") => _ = rest.next(),
                        other => break other.unwrap_or_default(),
                    }
                };
                if !["campaign", "fuzz", "live"].contains(&cmd) {
                    continue;
                }
                let synopsis = block(cmd);
                let stop = |w: &&str| !w.ends_with("harness") && !["|", ">", "&&", ";"].contains(w);
                let flags = rest.take_while(stop).filter(|w| w.starts_with("--"));
                // `--threads` is global: the harness takes it anywhere.
                for flag in flags.filter(|w| !w.starts_with("--threads")) {
                    let flag = flag.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
                    let listed = |end: char| synopsis.contains(&format!("[{flag}{end}"));
                    assert!(
                        listed(']') || listed(' '),
                        "{doc}: `harness {cmd} {flag}` names a flag {cmd} does not take: {code}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 10, "only {checked} flags found in the prose");
}

#[test]
fn prose_names_only_crates_the_workspace_has() {
    // Words shaped like crate names that are not crates: the key
    // derivation's domain tags and the fuzz report's JSON tag.
    const NOT_CRATES: [&str; 3] = ["btr-node-key", "btr-node-key-sip", "btr-schedule-fuzz"];
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let read = |path: &str| std::fs::read_to_string(format!("{root}{path}")).expect("file reads");
    // The workspace's packages: the root's and each member's.
    let manifest = read("Cargo.toml");
    let members = manifest
        .split("members = [")
        .nth(1)
        .and_then(|m| m.split(']').next());
    let mut packages = vec!["btr".to_string()];
    for dir in members.expect("workspace members").split(',') {
        let dir = dir.trim().trim_matches('"');
        if dir.is_empty() {
            continue;
        }
        let name = read(&format!("{dir}/Cargo.toml"))
            .lines()
            .find_map(|l| Some(l.strip_prefix("name = ")?.trim_matches('"').to_string()))
            .expect("package name");
        packages.push(name);
    }
    let mut checked = 0;
    for doc in ["DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        let text = read(doc);
        let words = text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'));
        for word in words.filter(|w| w.starts_with("btr-") || w.starts_with("btr_")) {
            let name = word.trim_end_matches(['-', '_']).replace('_', "-");
            assert!(
                packages.contains(&name) || NOT_CRATES.contains(&name.as_str()),
                "{doc} names `{word}`, which is no workspace package ({packages:?})"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 20,
        "only {checked} crate names found in the prose"
    );
}

#[test]
fn prose_names_only_commands_the_harness_has() {
    // What `--list` names (each experiment id, `live`, `campaign`,
    // `fuzz`) and what the command section of `--help` adds (`all`).
    let list = String::from_utf8_lossy(&harness(&["--list"]).stdout).into_owned();
    let help = String::from_utf8_lossy(&harness(&["--help"]).stdout).into_owned();
    let section = help
        .split("commands:\n")
        .nth(1)
        .and_then(|s| s.split("\n\n").next());
    let firsts = |lines: &str, indent: &str| -> Vec<String> {
        let heads = lines
            .lines()
            .filter(|l| l.starts_with(indent) && !l[indent.len()..].starts_with(' '));
        heads
            .filter_map(|l| Some(l.split_whitespace().next()?.to_string()))
            .collect()
    };
    let mut commands = firsts(&list, "");
    commands.extend(firsts(section.expect("--help has a command section"), "  "));
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let mut checked = 0;
    for doc in ["DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(format!("{root}{doc}")).expect("doc reads");
        for code in code_of(&text) {
            // A shell comment is prose.
            let code = code.split(" #").next().unwrap_or_default();
            let words: Vec<&str> = code.split_whitespace().collect();
            for (i, w) in words.iter().enumerate() {
                if !w.ends_with("harness") {
                    continue;
                }
                let mut rest = words[i + 1..].iter().copied();
                let cmd = loop {
                    match rest.next() {
                        Some("--threads") => _ = rest.next(),
                        other => break other.unwrap_or_default(),
                    }
                };
                if cmd.is_empty() || cmd.starts_with('-') {
                    continue;
                }
                assert!(
                    commands.iter().any(|c| c == cmd),
                    "{doc}: `harness {cmd}` is no command the harness has ({commands:?}): {code}"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 20,
        "only {checked} harness commands found in the prose"
    );
}

#[test]
fn prose_names_only_workloads_the_benchmark_has() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let read = |path: &str| std::fs::read_to_string(format!("{root}{path}")).expect("file reads");
    // The six workloads `BENCHMARK.json` declares.
    let manifest = read("BENCHMARK.json");
    let declared = manifest
        .split("\"workloads\": [")
        .nth(1)
        .and_then(|w| w.split(']').next());
    let workloads: Vec<&str> = declared
        .expect("a workloads array")
        .split("{\"name\": \"")
        .skip(1)
        .filter_map(|w| w.split('"').next())
        .collect();
    assert_eq!(workloads.len(), 6, "{workloads:?}");
    // Words shaped like a workload name, `<layer>_<name>`, that are not
    // one: a Rust path's last segment and an example's name.
    let mut checked = 0;
    for doc in ["DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        let text = read(doc);
        let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let mut start = None;
        for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
            let Some(s) = start.filter(|_| !is_word(c)) else {
                start = start.or(is_word(c).then_some(i));
                continue;
            };
            start = None;
            let (before, word) = (&text[..s], &text[s..i]);
            let shaped = ["sim_", "campaign_", "planner_", "live_"]
                .iter()
                .any(|layer| word.starts_with(layer) && word.len() > layer.len());
            if !shaped || before.ends_with("::") || before.ends_with("--example ") {
                continue;
            }
            assert!(
                workloads.contains(&word),
                "{doc} names the workload `{word}`, which BENCHMARK.json does not declare ({workloads:?})"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 10,
        "only {checked} workload names found in the prose"
    );
}

#[test]
fn a_closed_stdout_is_not_a_panic() {
    // `harness --list | head -1` after head has gone: the read end is
    // closed before the child starts, so its first write gets EPIPE.
    for flag in ["--list", "--help"] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .arg(flag)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("harness runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{flag}: {err}");
        assert!(err.is_empty(), "{flag}: {err}");
    }
}
