//! Golden churn fixture: a seeded partition-and-heal run's full stdout —
//! usage lines, tables, the per-router health table with lifecycle
//! states, and the topology-event strip — matches the transcript
//! committed under `tests/data/`. The strip doubles as an RNG canary: any
//! renumbering of the seeded churn draw sequence (an extra draw, a
//! reordered pair) moves every scheduled event and shows up as a diff.
//!
//! To bless an intentional change:
//! `MANTRA_BLESS=1 cargo test -p mantra-cli --test churn_golden`

use std::path::PathBuf;
use std::process::Command;

#[test]
fn churn_partition_run_matches_golden_transcript() {
    let bin = env!("CARGO_BIN_EXE_mantra");
    let run = Command::new(bin)
        .args(["monitor", "--churn", "partition", "--seed", "42"])
        .args(["--hours", "72"])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "churned monitor run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let got = String::from_utf8(run.stdout).unwrap();

    // The fixture lives in the workspace-root tests/data/, next to the
    // other cross-crate fixtures.
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/churn_partition_seed42.txt");
    if std::env::var_os("MANTRA_BLESS").is_some() {
        std::fs::write(&golden_path, &got).unwrap();
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with MANTRA_BLESS=1 to create)",
            golden_path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "churned run diverged from {} — if the change is intentional, \
         re-bless with MANTRA_BLESS=1",
        golden_path.display()
    );

    // Sanity on the fixture itself: it must exercise a partition AND its
    // heal, and surface the lifecycle column.
    assert!(got.contains("partition {"), "fixture lost its partition");
    assert!(got.contains("heal"), "fixture lost its heal");
    assert!(got.contains("state"), "health table lost the state column");
}
