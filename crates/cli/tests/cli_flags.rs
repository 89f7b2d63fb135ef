//! Flag validation at the binary's surface: a mistyped flag must stop
//! the run before any work, name the flag and list the valid ones —
//! `monitor --flet 50` must never silently run without a fleet.

use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

#[test]
fn monitor_rejects_a_mistyped_fleet_flag_before_any_work() {
    let run = Command::new(env!("CARGO_BIN_EXE_mantra"))
        .args(["monitor", "--flet", "50"])
        .output()
        .unwrap();
    assert!(!run.status.success(), "unknown flag accepted");
    assert!(run.stdout.is_empty(), "the run produced output");
    let err = String::from_utf8(run.stderr).unwrap();
    assert!(err.contains("unknown flag --flet;"), "{err}");
    assert!(err.contains("--fleet"), "valid flags not listed: {err}");
    // The run's progress line ("monitoring 12h of simulated time ...").
    assert!(!err.contains("of simulated time"), "work started: {err}");
}

#[test]
fn flags_are_checked_per_subcommand() {
    // `--path` belongs to `archive`, not to `monitor`; `--out` only to
    // `archive compact`.
    for args in [
        &["monitor", "--path", "x.marc"][..],
        &["archive", "info", "--path", "x.marc", "--out", "y.marc"][..],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_mantra"))
            .args(args)
            .output()
            .unwrap();
        assert!(!run.status.success(), "{args:?} accepted");
        let err = String::from_utf8(run.stderr).unwrap();
        assert!(err.contains("unknown flag --"), "{args:?}: {err}");
    }
}

/// Runs `mantra` with `args` until it exits or `limit` passes (then it is
/// killed): the exit status, if it exited, and its stderr.
fn run_until(args: &[&str], limit: Duration) -> (Option<ExitStatus>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mantra"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + limit;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() >= deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut err = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    (status, err)
}

#[test]
fn daemon_checks_the_world_flags_as_monitor_does() {
    // A fleet below three routers, and out-of-range probabilities, stop
    // `daemon` before it serves anything, with `monitor`'s own message.
    for flags in [
        &["--fleet", "2"][..],
        &["--fleet", "5", "--loss", "2"][..],
        &["--fleet", "5", "--native", "-1"][..],
    ] {
        let monitor = run_until(&[&["monitor"], flags].concat(), Duration::from_secs(30));
        let daemon_args = [&["daemon", "--addr", "127.0.0.1:0"], flags].concat();
        let (status, err) = run_until(&daemon_args, Duration::from_secs(10));
        let status = status.unwrap_or_else(|| panic!("daemon {flags:?} kept running: {err}"));
        assert!(!status.success(), "daemon {flags:?} succeeded: {err}");
        let flag = flags[flags.len() - 2];
        let line = err.lines().find(|l| l.starts_with("error:"));
        let line = line.unwrap_or_else(|| panic!("daemon {flags:?}: no error line in {err}"));
        assert!(line.contains(flag), "daemon {flags:?}: {line}");
        assert!(!monitor.0.unwrap().success());
        assert!(monitor.1.contains(line), "monitor {flags:?}: {}", monitor.1);
    }
}

#[test]
fn shards_is_not_a_flag() {
    // One engine holds every router: `--shards` would change nothing, so
    // it is an unknown flag like any other, before any work.
    for cmd in [&["monitor"][..], &["daemon", "--addr", "127.0.0.1:0"][..]] {
        let args = [cmd, &["--shards", "4"]].concat();
        let (status, err) = run_until(&args, Duration::from_secs(30));
        let status = status.unwrap_or_else(|| panic!("{args:?} kept running: {err}"));
        assert_eq!(status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("error: unknown flag --shards; valid flags: "),
            "{err}"
        );
        assert!(
            err.contains("--fleet, --table-rows"),
            "valid flags not listed: {err}"
        );
        assert!(!err.contains("of simulated time"), "work started: {err}");
    }
}
