//! Zero-copy parser equivalence: the span/byte parser and the string
//! parser it replaced (`mantra_oracle::processor`) must be
//! byte-identical — same `Tables`, same `ParseStats` — on everything a
//! terminal can deliver: live simulator cycles, the golden messy-capture
//! corpus, the processor unit tests' corpus, and arbitrary garbage
//! including ANSI noise, interior carriage returns, truncation and
//! non-UTF-8 bytes. Neither parser may ever panic.
//!
//! The byte parser assembles its snapshot through `TablesBuilder`, the
//! reference through row-at-a-time `Tables` inserts, so the agreement
//! tests also pin the builder on real captures. Two more properties pin
//! it on arbitrary row sequences — duplicate keys, wildcard sources, IGMP
//! sightings before and after their pairs at other capture times, keys
//! out of order — for both the parser's use and the archive replay's
//! `SnapshotParts::rebuild`.

use proptest::prelude::*;

use mantra::core::collector::{preprocess, preprocess_bytes, Capture};
use mantra::core::logger::SnapshotParts;
use mantra::core::processor::process;
use mantra::core::tables::{LearnedFrom, PairRow, RouteRow, SessionRow, Tables, TablesBuilder};
use mantra::core::ParallelAccess;
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};
use mantra::router_cli::TableKind;
use mantra::sim::Scenario;
use mantra_oracle::processor as reference;

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

/// The raw texts `processor`'s unit tests feed the parser: both
/// dialects of every table kind, a malformed row and two error
/// responses.
const UNIT_CORPUS: &[(TableKind, &str)] = &[
    (TableKind::DvmrpRoutes, "DVMRP Routing Table (3 entries)\n Origin-Subnet      From-Gateway       Metric  Tmr  In-Vif  Out-Vifs\n 128.111.0.0/16   10.128.0.2     3   25  1  1*\n 10.5.0.0/24   direct   1   0   0  1*\n 10.9.0.0/24   --   32  140  1  1*\n"),
    (TableKind::DvmrpRoutes, "DVMRP Routing Table - 3 entries\n128.111.0.0/16 [1/3] via 10.128.0.6 uptime 04:23:00  \n10.5.0.0/24 [1/1] directly connected uptime 3d04h C\n10.9.0.0/24 [1/32] unreachable uptime 00:02:20 H\n"),
    (TableKind::ForwardingCache, "Multicast Routing Cache Table (2 entries)\n Origin Mcast-group CTmr Age Ptmr Rate IVif Forwvifs\n 128.111.5.2 224.2.0.1 150 4m 0 64.0k 1 2 3\n 128.111.5.3 224.2.0.2 150 9m 0 0.8k 1 P\n"),
    (TableKind::ForwardingCache, "IP Multicast Statistics\n2 routes using 304 bytes of memory\nFlags: D - Dense, S - Sparse, C - Connected, P - Pruned, M - MSDP created entry\n(128.111.5.2, 224.2.0.1), uptime 00:10:00, flags: S\n  Incoming interface: Vif1, Outgoing: Vif2, Vif3\n  Pkt count 1000, bytes 500000, rate 64 kbps\n(*, 224.2.0.2), uptime 01:00:00, flags: SP\n  Incoming interface: Vif1, Outgoing: Null\n  Pkt count 0, bytes 0, rate 0 kbps\n"),
    (TableKind::MbgpRoutes, "MBGP table version is 4, local router ID is 198.32.136.1\n   Network            Next Hop          Path\n*> 128.3.0.0/16 10.128.0.9 65002 65003 i\n*> 128.4.0.0/16 0.0.0.0  i\n"),
    (TableKind::SaCache, "MSDP Source-Active Cache - 2 entries\n(128.3.5.2, 224.2.0.9), RP 198.32.136.1, learned 00:05:00\n(128.4.5.2, 224.2.0.9), RP 198.32.136.9, learned 3d00h\n"),
    (TableKind::IgmpGroups, "Virtual Interface Table, Groups (1)\n Vif Group Members Reported\n 0 224.2.0.7 3 12s ago\n"),
    (TableKind::DvmrpRoutes, "DVMRP Routing Table (2 entries)\n totally bogus line here\n 128.111.0.0/16 10.128.0.2 3 25 1 1*\n"),
    (TableKind::MbgpRoutes, "mrouted: unknown command 'show ip mbgp'\n"),
    (TableKind::SaCache, "%MSDP not enabled\n"),
];

#[test]
fn byte_and_reference_parsers_agree_on_unit_corpus() {
    let at = SimTime::from_ymd(1998, 11, 1);
    let captures: Vec<Capture> = UNIT_CORPUS
        .iter()
        .map(|(k, text)| preprocess("r", *k, text, at))
        .collect();
    // Per capture and as one batch per kind grouping.
    for c in &captures {
        let batch = [c.clone()];
        let (bt, bs) = process(&batch);
        let (rt, rs) = reference::process(&batch);
        assert_eq!(bt, rt, "tables diverge on {:?}", c.kind);
        assert_eq!(bs, rs, "stats diverge on {:?}", c.kind);
    }
    let (bt, bs) = process(&captures);
    let (rt, rs) = reference::process(&captures);
    assert_eq!(bt, rt);
    assert_eq!(bs, rs);
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

const PROTOCOLS: [LearnedFrom; 5] = [
    LearnedFrom::Dvmrp,
    LearnedFrom::Pim,
    LearnedFrom::Msdp,
    LearnedFrom::Mbgp,
    LearnedFrom::Igmp,
];

/// One row pushed into a snapshot.
#[derive(Clone, Debug)]
enum Row {
    Pair(PairRow),
    Route(RouteRow),
    Igmp(GroupAddr, SimTime),
    Sa(GroupAddr, Ip, SimTime),
}

/// Rows drawn from small key universes, so keys repeat: 6 groups × 5
/// sources (source 0 is the wildcard), 2 protocols × 5 prefixes of
/// routes, IGMP sightings at the snapshot time or a minute or two off.
fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((0u8..5, 0u32..6, 0u32..5, 0u64..4_000), 0..48).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, a, b, c)| match kind {
                0 | 1 => Row::Pair(PairRow {
                    source: if b == 0 {
                        Ip::UNSPECIFIED
                    } else {
                        Ip(0x0a00_0000 + b)
                    },
                    group: GroupAddr::from_index(a),
                    current_bw: BitRate::from_bps(c),
                    avg_bw: BitRate::from_bps(c / 2),
                    forwarding: c % 2 == 0,
                    learned_from: PROTOCOLS[c as usize % 5],
                }),
                2 => Row::Route(RouteRow {
                    prefix: Prefix::new(Ip::new(10, b as u8, 0, 0), 16).unwrap(),
                    next_hop: (c % 4 != 0).then_some(Ip::new(10, 128, 0, c as u8)),
                    metric: (c % 33) as u32,
                    uptime: (c % 3 == 0).then_some(SimDuration::secs(c)),
                    reachable: c % 5 != 0,
                    learned_from: if a % 2 == 0 {
                        LearnedFrom::Dvmrp
                    } else {
                        LearnedFrom::Mbgp
                    },
                }),
                3 => Row::Igmp(
                    GroupAddr::from_index(a),
                    SimTime(t0().as_secs() + 60 * u64::from(b % 3)),
                ),
                _ => Row::Sa(
                    GroupAddr::from_index(a),
                    Ip(0x0b00_0000 + b),
                    SimTime(t0().as_secs() - c),
                ),
            })
            .collect()
    })
}

/// Sessions to seed, some of them in groups the pair rows also use.
fn arb_seeds() -> impl Strategy<Value = Vec<SessionRow>> {
    proptest::collection::vec((0u32..8, 0u32..3, 0u64..4_000, any::<bool>()), 0..5).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(g, density, c, named)| SessionRow {
                    group: GroupAddr::from_index(g),
                    name: named.then(|| format!("session {g}")),
                    density,
                    bandwidth: BitRate::from_bps(c),
                    first_advertised: PROTOCOLS[c as usize % 5],
                    first_seen: SimTime(t0().as_secs() - c),
                })
                .collect()
        },
    )
}

/// The row-at-a-time definition: seeds inserted first, then each row
/// through the insert its parser made before the builder existed.
fn row_at_a_time(seeds: &[SessionRow], rows: &[Row]) -> Tables {
    let mut t = Tables::new("fixw", t0());
    for s in seeds {
        t.sessions.insert(s.group, s.clone());
    }
    for row in rows {
        match row {
            Row::Pair(p) => t.add_pair(p.clone()),
            Row::Route(r) => t.add_route(r.clone()),
            Row::Igmp(g, at) => {
                t.sessions.entry(*g).or_insert_with(|| SessionRow {
                    group: *g,
                    name: None,
                    density: 0,
                    bandwidth: BitRate::ZERO,
                    first_advertised: LearnedFrom::Igmp,
                    first_seen: *at,
                });
            }
            Row::Sa(g, s, first) => {
                t.sa_cache.insert((*g, *s), *first);
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The key-ordered builder returns exactly the row-at-a-time tables.
    #[test]
    fn builder_matches_row_at_a_time_inserts(seeds in arb_seeds(), rows in arb_rows()) {
        let mut b = TablesBuilder::new();
        for s in &seeds {
            b.seed_session(s.clone());
        }
        for row in &rows {
            match row {
                Row::Pair(p) => b.pair(p.clone()),
                Row::Route(r) => b.route(r.clone()),
                Row::Igmp(g, at) => b.igmp(*g, *at),
                Row::Sa(g, s, first) => b.sa(*g, *s, *first),
            }
        }
        prop_assert_eq!(b.build("fixw", t0()), row_at_a_time(&seeds, &rows));
    }

    /// A replayed record rebuilds to the snapshot the row-at-a-time
    /// rebuild made: member-only sessions inserted, then every stored
    /// pair, route and SA entry in stored order.
    #[test]
    fn rebuild_matches_row_at_a_time_rebuild(seeds in arb_seeds(), rows in arb_rows()) {
        let mut parts = SnapshotParts {
            captured_at: t0(),
            router: "fixw".into(),
            member_only_sessions: seeds.clone(),
            ..SnapshotParts::default()
        };
        let mut stored = Vec::new();
        for row in rows {
            match &row {
                Row::Pair(p) => parts.pairs.push(p.clone()),
                Row::Route(r) => parts.routes.push(r.clone()),
                Row::Sa(g, s, first) => parts.sa_cache.push((*g, *s, *first)),
                Row::Igmp(..) => continue,
            }
            stored.push(row);
        }
        // Stored order is pairs, then routes, then SA entries.
        stored.sort_by_key(|r| match r {
            Row::Pair(_) => 0,
            Row::Route(_) => 1,
            _ => 2,
        });
        prop_assert_eq!(parts.rebuild(), row_at_a_time(&seeds, &stored));
    }
}
