//! Golden test: a seeded monitor run writes a file archive whose
//! `mantra archive replay` transcript matches the committed golden file.
//! Guards both the simulator's determinism and the archive format — a
//! change to either shows up as a diff against `tests/golden/`. Also
//! pins that `archive compact` never compacts an archive into itself,
//! and that `archive info` on a torn copy reports the tail it leaves in
//! place.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use mantra_core::archive::FileBackendV2;
use mantra_core::logger::TableLog;
use mantra_core::Tables;
use mantra_net::SimTime;

/// A temporary directory owned by one test, deleted (with everything in
/// it) when the guard drops — also when the test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mantra-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `mantra` with `args` in `cwd`.
fn mantra(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mantra"))
        .current_dir(cwd)
        .args(args)
        .output()
        .unwrap()
}

/// Writes the seed-7, two-hour monitor archives into `dir`.
fn monitor_archives(dir: &Path) {
    let monitor = mantra(
        dir,
        &[
            "monitor",
            "--seed",
            "7",
            "--hours",
            "2",
            "--archive-dir",
            ".",
        ],
    );
    assert!(
        monitor.status.success(),
        "monitor failed: {}",
        String::from_utf8_lossy(&monitor.stderr)
    );
}

#[test]
fn archive_replay_matches_golden() {
    let dir = TempDir::new("archive-golden");
    monitor_archives(dir.path());

    let replay = mantra(dir.path(), &["archive", "replay", "--path", "fixw.marc"]);
    assert!(
        replay.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let got = String::from_utf8(replay.stdout).unwrap();

    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/archive_replay_fixw.txt");
    let want = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(
        got,
        want,
        "archive replay diverged from {}",
        golden_path.display()
    );

    // `archive info` must read the same file without error, and a fresh
    // monitor run writes the v2 dictionary format.
    let info = mantra(dir.path(), &["archive", "info", "--path", "fixw.marc"]);
    assert!(info.status.success());
    let info_out = String::from_utf8(info.stdout).unwrap();
    assert!(
        info_out.contains("MANTRARC v2"),
        "unexpected info output:\n{info_out}"
    );
    assert!(
        info_out.contains("dictionary:  epoch 1"),
        "unexpected info output:\n{info_out}"
    );

    // Compacting with --drop-before rewrites to a smaller archive at the
    // next dictionary epoch; the cutoff here predates every record, so
    // nothing is dropped and replay transcripts stay identical.
    let compact = mantra(
        dir.path(),
        &[
            "archive",
            "compact",
            "--path",
            "fixw.marc",
            "--out",
            "fixw-compact.marc",
            "--drop-before",
            "1990-01-01",
        ],
    );
    assert!(
        compact.status.success(),
        "compact failed: {}",
        String::from_utf8_lossy(&compact.stderr)
    );
    let compact_out = String::from_utf8(compact.stdout).unwrap();
    assert!(
        compact_out.contains("dictionary epoch 2"),
        "unexpected compact output:\n{compact_out}"
    );
    let replay2 = mantra(
        dir.path(),
        &["archive", "replay", "--path", "fixw-compact.marc"],
    );
    assert!(replay2.status.success());
    assert_eq!(String::from_utf8(replay2.stdout).unwrap(), got);
}

#[test]
fn compact_refuses_an_out_that_names_its_source() {
    let dir = TempDir::new("archive-alias");
    monitor_archives(dir.path());
    let source = std::fs::read(dir.join("fixw.marc")).unwrap();
    std::fs::hard_link(dir.join("fixw.marc"), dir.join("fixw-link.marc")).unwrap();

    // The same file under another spelling, and under a hard link:
    // refused before anything is opened, the source left as it was.
    for out in ["./fixw.marc", "fixw-link.marc"] {
        let run = mantra(
            dir.path(),
            &["archive", "compact", "--path", "fixw.marc", "--out", out],
        );
        assert!(!run.status.success(), "compacting into {out} succeeded");
        let err = String::from_utf8_lossy(&run.stderr);
        assert!(err.contains("same file"), "{out}: {err}");
        assert_eq!(
            std::fs::read(dir.join("fixw.marc")).unwrap(),
            source,
            "compacting into {out} changed the source"
        );
    }

    // A distinct --out still compacts.
    let run = mantra(
        dir.path(),
        &[
            "archive",
            "compact",
            "--path",
            "fixw.marc",
            "--out",
            "new.marc",
        ],
    );
    assert!(
        run.status.success(),
        "compact failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(std::fs::read(dir.join("fixw.marc")).unwrap(), source);
    assert!(dir.join("new.marc").exists());
}

#[test]
fn info_on_a_torn_copy_reports_the_tail_left_in_place() {
    let dir = TempDir::new("archive-torn");
    monitor_archives(dir.path());
    let mut bytes = std::fs::read(dir.join("fixw.marc")).unwrap();
    bytes.truncate(bytes.len() - 3);
    std::fs::write(dir.join("torn.marc"), &bytes).unwrap();

    let info = mantra(dir.path(), &["archive", "info", "--path", "torn.marc"]);
    assert!(
        info.status.success(),
        "info failed: {}",
        String::from_utf8_lossy(&info.stderr)
    );
    let out = String::from_utf8(info.stdout).unwrap();
    let line = out
        .lines()
        .find(|l| l.starts_with("torn tail:"))
        .unwrap_or_else(|| panic!("no torn-tail line in:\n{out}"));
    let tail: usize = line
        .trim_start_matches("torn tail:")
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no byte count in {line:?}"));
    assert!(tail > 0 && tail < bytes.len(), "{line}");
    assert!(
        line.ends_with("bytes past the last intact record, left in place"),
        "{line}"
    );
    assert!(
        !out.contains("dropped"),
        "a read-only open drops nothing:\n{out}"
    );
    assert_eq!(
        std::fs::read(dir.join("torn.marc")).unwrap(),
        bytes,
        "info wrote the torn archive"
    );
}

/// The `== Archives ==` table of a monitor run: its column names and
/// each row's cells.
fn archives_table(stdout: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let table = stdout
        .split("== Archives ==\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no Archives table in:\n{stdout}"));
    let mut lines = table.lines();
    let columns = lines.next().unwrap().split_whitespace().map(String::from);
    let rows = lines
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().map(String::from).collect())
        .collect();
    (columns.collect(), rows)
}

/// The number after `label` on the `archive info` line that starts with
/// `prefix`.
fn info_number(info: &str, prefix: &str, label: &str) -> String {
    let line = info
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{info}"));
    let rest = line.split_once(label).map_or(line, |(_, r)| r);
    rest.trim_start_matches(prefix)
        .split_whitespace()
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn archives_table_under_threaded_writers_reads_what_is_on_disk() {
    // The end-of-run table waits for every writer thread to drain: its
    // records and dict cells are what `archive info` reads back from each
    // file, and every other cell but the timing columns repeats.
    let dir = TempDir::new("archive-writers");
    let mut tables = Vec::new();
    for (i, mode) in ["shed", "shed", "block"].into_iter().enumerate() {
        let out = dir.join(&format!("{mode}-{i}"));
        let run = mantra(
            dir.path(),
            &[
                "monitor",
                "--seed",
                "7",
                "--hours",
                "2",
                "--archive-dir",
                out.to_str().unwrap(),
                "--archive-writer",
                mode,
            ],
        );
        assert!(
            run.status.success(),
            "monitor failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let (columns, mut rows) = archives_table(&String::from_utf8(run.stdout).unwrap());
        let col = |name: &str| columns.iter().position(|c| c == name).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let path = out.join(format!("{}.marc", row[col("router")]));
            let info = mantra(
                dir.path(),
                &["archive", "info", "--path", path.to_str().unwrap()],
            );
            assert!(info.status.success());
            let info = String::from_utf8(info.stdout).unwrap();
            let records = info_number(&info, "records:", "records:");
            let dict = info_number(&info, "dictionary:", ", ");
            assert_eq!(row[col("records")], records, "{mode}: {row:?}\n{info}");
            assert_eq!(row[col("dict")], dict, "{mode}: {row:?}\n{info}");
        }
        for row in &mut rows {
            for timing in ["q_peak", "blk_ms"] {
                row[col(timing)].clear();
            }
        }
        tables.push(rows);
    }
    assert_eq!(tables[0], tables[1], "two identical shed runs");
}

#[test]
fn table_rows_condenses_the_two_router_archives_table() {
    // `--table-rows` is not a fleet-only flag: the two-router run
    // condenses its Archives table to the worst row plus a footer.
    let dir = TempDir::new("table-rows");
    let run = mantra(
        dir.path(),
        &[
            "monitor",
            "--seed",
            "7",
            "--hours",
            "1",
            "--archive-dir",
            ".",
            "--table-rows",
            "1",
        ],
    );
    assert!(run.status.success());
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(stdout.contains("1 of 2 archives shown"), "{stdout}");
}

#[test]
fn archive_info_and_replay_reject_full_every() {
    // A read-only open never appends, so a checkpoint cadence would
    // change nothing: `info` and `replay` do not take one, `compact`
    // (which rewrites) does.
    let dir = TempDir::new("full-every");
    monitor_archives(dir.path());
    for sub in ["info", "replay"] {
        let run = mantra(
            dir.path(),
            &["archive", sub, "--path", "fixw.marc", "--full-every", "4"],
        );
        assert_eq!(run.status.code(), Some(2), "archive {sub} --full-every");
        assert!(run.stdout.is_empty(), "archive {sub} did work");
        let err = String::from_utf8(run.stderr).unwrap();
        assert!(
            err.contains("unknown flag --full-every; valid flags: --path\n"),
            "{err}"
        );
    }
    let compact = mantra(
        dir.path(),
        &[
            "archive",
            "compact",
            "--path",
            "fixw.marc",
            "--out",
            "compacted.marc",
            "--full-every",
            "4",
        ],
    );
    assert!(compact.status.success());
}

#[test]
fn replay_into_a_closed_pipe_stops_cleanly() {
    // Far more replay lines than a pipe buffers, so the replay is still
    // writing when the reader goes away after one line (`| head -1`).
    let dir = TempDir::new("closed-pipe");
    let path = dir.join("long.marc");
    let mut log = TableLog::with_backend(Box::new(FileBackendV2::create(&path).unwrap()), 96);
    for i in 0..4000 {
        log.append(&Tables::new("r", SimTime(907_113_600 + i * 60)));
    }
    assert_eq!(log.write_errors, 0);
    drop(log);
    let mut child = Command::new(env!("CARGO_BIN_EXE_mantra"))
        .args(["archive", "replay", "--path", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("   0 "), "{first}");
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
