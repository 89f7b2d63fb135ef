//! Flag validation at the binary's surface: a mistyped flag must stop
//! the run before any work, name the flag and list the valid ones —
//! `monitor --shard 4` must never silently run unsharded.

use std::process::Command;

#[test]
fn monitor_rejects_a_mistyped_shards_flag_before_any_work() {
    let run = Command::new(env!("CARGO_BIN_EXE_mantra"))
        .args(["monitor", "--shard", "4"])
        .output()
        .unwrap();
    assert!(!run.status.success(), "unknown flag accepted");
    assert!(run.stdout.is_empty(), "the run produced output");
    let err = String::from_utf8(run.stderr).unwrap();
    assert!(err.contains("unknown flag --shard;"), "{err}");
    assert!(err.contains("--shards"), "valid flags not listed: {err}");
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
