//! Zero-copy parser equivalence: the span/byte parser and the kept
//! string parser (`processor::reference`) must be byte-identical — same
//! `Tables`, same `ParseStats` — on everything a terminal can deliver:
//! live simulator cycles, the golden messy-capture corpus, and arbitrary
//! garbage including ANSI noise, interior carriage returns, truncation
//! and non-UTF-8 bytes. Neither parser may ever panic.

use proptest::prelude::*;

use mantra::core::collector::preprocess_bytes;
use mantra::core::processor::{process, reference};
use mantra::core::ParallelAccess;
use mantra::net::{SimDuration, SimTime};
use mantra::router_cli::TableKind;
use mantra::sim::Scenario;

fn t0() -> SimTime {
    SimTime::from_ymd(1999, 3, 1)
}

/// Preprocess raw bytes once (preprocessing is shared by both parsers)
/// and assert the two parsers produce identical tables and accounting.
fn assert_agreement(kind: TableKind, raw: &[u8]) {
    let cap = preprocess_bytes("fixw", kind, raw.to_vec(), t0());
    let (bt, bs) = process(std::slice::from_ref(&cap));
    let (rt, rs) = reference::process(std::slice::from_ref(&cap));
    assert_eq!(bs, rs, "ParseStats diverge for {kind:?}");
    assert_eq!(bt, rt, "Tables diverge for {kind:?}");
}

/// Real rendered dumps for mutation, captured once.
fn real_dumps() -> Vec<(TableKind, String)> {
    let mut sc = Scenario::transition_snapshot(7, 0.5);
    sc.sim.advance_to(sc.sim.clock + SimDuration::hours(6));
    let now = sc.sim.clock;
    let mut out = Vec::new();
    for k in TableKind::ALL {
        for router in ["fixw", "ucsb-gw"] {
            if let Ok(raw) = sc.sim.capture(router, k, now) {
                out.push((k, raw));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup — any values, any length — parses without
    /// panicking and both parsers agree exactly.
    #[test]
    fn parsers_agree_on_arbitrary_garbage(
        raw in proptest::collection::vec(any::<u8>(), 0..2048),
        kind_ix in 0usize..TableKind::ALL.len(),
    ) {
        assert_agreement(TableKind::ALL[kind_ix], &raw);
    }

    /// Real dumps mutated the way broken sessions break them — ANSI
    /// escapes, interior `\r` overwrites, `--More--` residue, non-UTF-8
    /// line noise spliced in at arbitrary positions, then truncated at an
    /// arbitrary *byte* (no char-boundary courtesy) — still parse
    /// identically through both parsers.
    #[test]
    fn parsers_agree_on_mutated_real_dumps(
        which in 0usize..10,
        splice_ix in 0usize..6,
        pos_permille in 0u32..1000,
        cut_permille in 0u32..=1000,
    ) {
        const SPLICES: &[&[u8]] = &[
            b"\x1b[2K\x1b[1;32m",
            b"524288 bytes\rX",
            b" --More-- \r        \r",
            b"\xff\xfe\x80 noise \xf5",
            b"\r\r\n\r",
            b"fixw> \n",
        ];
        let dumps = real_dumps();
        let (kind, raw) = &dumps[which % dumps.len()];
        let mut bytes = raw.as_bytes().to_vec();
        let pos = (bytes.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let splice = SPLICES[splice_ix % SPLICES.len()];
        bytes.splice(pos..pos, splice.iter().copied());
        let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        bytes.truncate(cut.max(1));
        assert_agreement(*kind, &bytes);
    }
}

/// Every capture of every kind from live simulator cycles — banners,
/// prompts, pagination and all — parses identically, both one capture at
/// a time and as full per-router batches (the shape `process` sees in a
/// monitoring cycle).
#[test]
fn parsers_agree_on_live_cycles() {
    let mut sc = Scenario::transition_snapshot(11, 0.4);
    for cycle in 0..6 {
        let now = sc.sim.clock + SimDuration::hours(2);
        sc.sim.advance_to(now);
        for router in ["fixw", "ucsb-gw"] {
            let mut batch = Vec::new();
            for kind in TableKind::ALL {
                if let Ok(raw) = sc.sim.capture(router, kind, now) {
                    batch.push(preprocess_bytes(router, kind, raw.into_bytes(), now));
                }
            }
            for cap in &batch {
                let (bt, bs) = process(std::slice::from_ref(cap));
                let (rt, rs) = reference::process(std::slice::from_ref(cap));
                assert_eq!(bs, rs, "cycle {cycle} {router} {:?}", cap.kind);
                assert_eq!(bt, rt, "cycle {cycle} {router} {:?}", cap.kind);
            }
            let (bt, bs) = process(&batch);
            let (rt, rs) = reference::process(&batch);
            assert_eq!(bs, rs, "cycle {cycle} {router} batch");
            assert_eq!(bt, rt, "cycle {cycle} {router} batch");
        }
    }
}

/// The golden corpus of messy captured dumps replays byte-identically
/// through both parsers, and its accounting matches the checked-in
/// expectations exactly (catching silent parser drift).
#[test]
fn golden_corpus_parses_identically() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/captures");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden corpus directory")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.contains("__"))
        .collect();
    names.sort();
    assert!(names.len() >= 8, "corpus went missing: {names:?}");
    let mut actual = String::new();
    for name in &names {
        let prefix = name.split("__").next().unwrap();
        let kind = TableKind::ALL
            .into_iter()
            .find(|k| k.label() == prefix)
            .unwrap_or_else(|| panic!("{name}: unknown kind prefix {prefix}"));
        let raw = std::fs::read(dir.join(name)).unwrap();
        let cap = preprocess_bytes("fixw", kind, raw, t0());
        let (bt, bs) = process(std::slice::from_ref(&cap));
        let (rt, rs) = reference::process(std::slice::from_ref(&cap));
        assert_eq!(bs, rs, "{name}: ParseStats diverge");
        assert_eq!(bt, rt, "{name}: Tables diverge");
        actual.push_str(&format!(
            "{name}\tparsed={} malformed={} skipped={} pairs={} routes={} sa={} sessions={}\n",
            bs.parsed,
            bs.malformed,
            bs.skipped,
            bt.pairs.len(),
            bt.routes.len(),
            bt.sa_cache.len(),
            bt.sessions.len(),
        ));
    }
    let expected_path = dir.join("expected.tsv");
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_default();
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "golden corpus accounting drifted; if intentional, update expected.tsv to:\n{actual}"
    );
}
