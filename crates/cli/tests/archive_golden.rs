//! Golden test: a seeded monitor run writes a file archive whose
//! `mantra archive replay` transcript matches the committed golden file.
//! Guards both the simulator's determinism and the archive format — a
//! change to either shows up as a diff against `tests/golden/`. Also
//! pins that `archive compact` never compacts an archive into itself,
//! and that `archive info` on a torn copy reports the tail it leaves in
//! place.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

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
