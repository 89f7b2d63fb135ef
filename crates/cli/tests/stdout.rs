//! Every command writes its stdout through one writer: a reader that
//! closes the pipe early ends the command cleanly (exit 0), and any other
//! write error fails it (exit 1) with the error named.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn snmpwalk_into_a_closed_pipe_stops_cleanly() {
    // `--oid 1.3` walks ~95 KB, more than a pipe buffers, so the walk is
    // still writing when the reader goes away after one line
    // (`| head -1`).
    let mut child = Command::new(env!("CARGO_BIN_EXE_mantra"))
        .args(["snmpwalk", "--oid", "1.3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("1.3."), "{first}");
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn a_failing_stdout_names_the_error() {
    // Writes to /dev/full fail with "no space left on device".
    let Ok(full) = std::fs::File::create("/dev/full") else {
        return;
    };
    let out = Command::new(env!("CARGO_BIN_EXE_mantra"))
        .arg("help")
        .stdout(full)
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("error: writing to stdout: "), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
