//! The `harness` binary's exit-code contract: 0 on success, 1 when a
//! gate fails, 2 on anything malformed — and never a panic. Error paths
//! and `--list`/`--help` return before any measurement starts, so the
//! debug binary answers in milliseconds; one live replay, paced for a
//! debug build, pins that both substrates fold a multi-hop token to the
//! same record.

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
    assert!(rejected(&["campaign", "--auth", "rot13"]).contains("hmac, sip, or both"));
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
}

#[test]
fn live_replay_names_the_first_divergence() {
    // The fat-tree token the substrates used to part on (EXPERIMENTS.md
    // "One network model"): one network model on both, so the fleet's
    // trace is the simulator's, and both fold it to one record. A debug
    // fleet needs about 4 s of wall for n8's flood: pace 6 gives it 6.5 s
    // plus the join grace, inside the helper's 10 s.
    let token = "w=scada;t=fattree4x1000000x5;f=1;r=400000;h=1080000;me=20000000;\
                 s=7191089600892374487;fl=evidence-spam@169689@n8";
    let out = harness(&["live", "--replay", token, "--pace", "6"]);
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
