//! Zero-copy parser equivalence: the span/byte parser and the string
//! parser it replaced (`mantra_oracle::processor`) must be
//! byte-identical — same `Tables`, same `ParseStats` — on everything a
//! terminal can deliver: live simulator cycles, the golden messy-capture
//! corpus, the processor unit tests' corpus, and arbitrary garbage
//! including ANSI noise, interior carriage returns, truncation and
//! non-UTF-8 bytes. Neither parser may ever panic. Beneath both, the
//! word-at-a-time capture scanner must select exactly the effective
//! lines of the line-at-a-time one (`mantra_oracle::collector`), on full
//! captures and on the salvage path.
//!
//! The byte parser assembles its snapshot through `TablesBuilder`, the
//! reference through row-at-a-time inserts into its own `BTreeMap`s, so
//! the agreement tests also pin the builder on real captures. Two more
//! properties pin it on arbitrary row sequences — duplicate keys,
//! wildcard sources, IGMP sightings before and after their pairs at other
//! capture times, keys out of order — for both the parser's use and the
//! archive replay's `SnapshotParts::rebuild`. The tables' `SortedMap` is
//! held to `BTreeMap` over random operation sequences, and its serde text
//! is pinned.

use proptest::prelude::*;

use std::collections::BTreeMap;

use mantra::core::collector::{preprocess, preprocess_bytes, Capture};
use mantra::core::logger::SnapshotParts;
use mantra::core::processor::process;
use mantra::core::tables::{
    LearnedFrom, PairRow, RouteRow, SessionRow, SortedMap, Tables, TablesBuilder,
};
use mantra::core::{CaptureError, Collector, ParallelAccess, RetryPolicy};
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};
use mantra::router_cli::TableKind;
use mantra::sim::Scenario;
use mantra_oracle::collector::effective_lines;
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
/// dialects of every table kind, a malformed row, two error responses
/// and an IOS block whose counters follow a garbled header.
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
    (TableKind::ForwardingCache, "IP Multicast Statistics\n(1.1.1.1, 224.2.0.1), uptime 00:01:00, flags: D\n  Incoming interface: Vif1, Outgoing: Vif2\n(garbage, 224.2.0.2), uptime 00:01:00, flags: D\n  Incoming interface: Vif1, Outgoing: Null\n  Pkt count 5, bytes 10, rate 99 kbps\n(1.1.1.3, 224.2.0.3), uptime 00:01:00, flags: S\n  Pkt count 7, bytes 14, rate 7 kbps\n"),
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

/// What a raw capture is made of: every line break and pager artifact,
/// whitespace runs (vertical tab included), prompt echoes of router `r`,
/// telnet banners and ordinary fields. One index past the end stands for
/// a byte in 0x80–0xFF.
const SCAN_PIECES: &[&[u8]] = &[
    b"\n",
    b"\r",
    b"\r\n",
    b"--More--",
    b" ",
    b"    ",
    b"\t",
    b"\x0b",
    b"r>",
    b"r#",
    b"Trying ",
    b"Connected to",
    b"Escape character",
    b"10.0.0.0/8",
    b"224.2.0.1",
    b"x",
];

/// Captures of 0–80 bytes cut from runs of [`SCAN_PIECES`], so breaks
/// land at every offset of an eight-byte word and at the very end.
fn arb_capture_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec((0..SCAN_PIECES.len() + 1, 0x80u8..=0xff), 0..40),
        0usize..=80,
    )
        .prop_map(|(pieces, len)| {
            let mut raw = Vec::new();
            for (i, high) in pieces {
                match SCAN_PIECES.get(i) {
                    Some(piece) => raw.extend_from_slice(piece),
                    None => raw.push(high),
                }
            }
            raw.truncate(len);
            raw
        })
}

/// Every capture comes back cut to the same partial.
struct Torn(Vec<u8>);

impl ParallelAccess for Torn {
    fn capture(&self, _: &str, _: TableKind, _: SimTime) -> Result<String, CaptureError> {
        Err(CaptureError::Truncated {
            partial: self.0.clone(),
        })
    }
}

/// A routes-shaped key from a small universe, so keys repeat.
fn route_key(proto: usize, net: u8) -> (LearnedFrom, Prefix) {
    let prefix = match net {
        0 => Prefix::DEFAULT,
        n => Prefix::new(Ip::new(10, n, 0, 0), 16).unwrap(),
    };
    (PROTOCOLS[proto % 5], prefix)
}

/// Every observable of `map` equals the same observable of `model`.
fn assert_same_map(
    map: &SortedMap<(LearnedFrom, Prefix), u32>,
    model: &BTreeMap<(LearnedFrom, Prefix), u32>,
) {
    assert_eq!(map.len(), model.len());
    assert_eq!(map.is_empty(), model.is_empty());
    assert!(map.iter().eq(model.iter()));
    assert!(map.iter().rev().eq(model.iter().rev()));
    assert!(map.keys().eq(model.keys()));
    assert!(map.values().eq(model.values()));
    assert!(map.into_iter().eq(model));
    assert_eq!(format!("{map:?}"), format!("{model:?}"));
    for (proto, &learned) in PROTOCOLS.iter().enumerate() {
        for net in 0..5 {
            let k = route_key(proto, net);
            assert_eq!(map.get(&k), model.get(&k));
            assert_eq!(map.contains_key(&k), model.contains_key(&k));
            if let Some(v) = model.get(&k) {
                assert_eq!(map[&k], *v);
            }
        }
        // The range `Tables::routes_of` takes.
        let from = (learned, Prefix::DEFAULT);
        assert!(map.range(from..).eq(model.range(from..)));
        assert!(map.range(from..).rev().eq(model.range(from..).rev()));
    }
    assert_eq!(
        *map,
        model
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect::<SortedMap<_, _>>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The word-at-a-time scanner selects exactly the line-at-a-time
    /// reference's effective lines, and the salvage path drops exactly
    /// the torn tail line of the same lines. Ending a line at a `\r` as
    /// well as at a `\n` (`b == b'\r'` in place of the CR-segment test in
    /// `preprocess_bytes`) fails it: `ab\rc` then shows two lines
    /// instead of the overwritten `cb`.
    #[test]
    fn scanner_matches_the_line_at_a_time_reference(raw in arb_capture_bytes()) {
        let text = String::from_utf8_lossy(&raw).into_owned();
        let want = effective_lines("r", &raw);
        let cap = preprocess_bytes("r", TableKind::DvmrpRoutes, raw.clone(), t0());
        prop_assert!(cap.lines().eq(want.iter().map(Vec::as_slice)), "{text:?}");
        prop_assert_eq!(cap.line_count(), want.len(), "{text:?}");

        let mut salvaged = want;
        if raw.last() != Some(&b'\n') {
            salvaged.pop();
        }
        let collector = Collector {
            tables: vec![TableKind::DvmrpRoutes],
            ..Collector::with_retry(RetryPolicy::none())
        };
        let (caps, _) = collector.collect_with(&Torn(raw), "r", t0());
        prop_assert_eq!(caps.len(), usize::from(!salvaged.is_empty()), "{text:?}");
        let got: Vec<Vec<u8>> = caps.iter().flat_map(|c| c.lines().map(<[u8]>::to_vec)).collect();
        prop_assert_eq!(got, salvaged, "{text:?}");
    }

    /// The tables' sorted map and `BTreeMap` agree after every step of a
    /// random operation sequence, starting from a collected entry list
    /// with repeated keys.
    #[test]
    fn sorted_map_matches_btreemap(
        start in proptest::collection::vec((0usize..5, 0u8..5, 0u32..100), 0..16),
        ops in proptest::collection::vec((0u8..7, 0usize..5, 0u8..5, 0u32..100), 0..48),
    ) {
        let entries: Vec<_> = start.iter().map(|&(p, n, v)| (route_key(p, n), v)).collect();
        let mut map: SortedMap<_, _> = entries.iter().copied().collect();
        let mut model = BTreeMap::new();
        for &(k, v) in &entries {
            model.insert(k, v);
        }
        assert_same_map(&map, &model);
        for (op, p, n, v) in ops {
            let k = route_key(p, n);
            match op {
                0 => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                1 => {
                    *map.entry(k).or_insert_with(|| v) += 1;
                    *model.entry(k).or_insert_with(|| v) += 1;
                }
                2 => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                3 => {
                    if let (Some(a), Some(b)) = (map.get_mut(&k), model.get_mut(&k)) {
                        *a = v;
                        *b = v;
                    }
                    prop_assert_eq!(map.get(&k), model.get(&k));
                }
                4 => {
                    for ((_, a), (_, b)) in map.iter_mut().zip(model.iter_mut()) {
                        *a += v;
                        *b += v;
                    }
                }
                5 => {
                    for (a, b) in map.values_mut().zip(model.values_mut()) {
                        *a ^= v;
                        *b ^= v;
                    }
                }
                _ => {
                    let lo = route_key(p, n);
                    let hi = route_key(p.max(v as usize % 5), n.max(v as u8 % 5));
                    if lo <= hi {
                        prop_assert!(map.range(lo..hi).eq(model.range(lo..hi)));
                        prop_assert!(map.range(lo..=hi).eq(model.range(lo..=hi)));
                        prop_assert!(map.range(..=hi).rev().eq(model.range(..=hi).rev()));
                    }
                }
            }
            assert_same_map(&map, &model);
        }
    }
}

/// One snapshot's `serde_json` text, as the `BTreeMap`-backed tables
/// wrote it: each table an entry list `[[key, value], …]` in key order.
/// Archives and the daemon's JSON depend on this encoding.
const PINNED_TABLES_JSON: &str = r#"{"captured_at":909878400,"router":"fixw","pairs":[[[3758227456,0],{"source":0,"group":3758227456,"current_bw":0,"avg_bw":0,"forwarding":false,"learned_from":"Msdp"}],[[3758227457,2154759426],{"source":2154759426,"group":3758227457,"current_bw":64000,"avg_bw":32000,"forwarding":true,"learned_from":"Dvmrp"}],[[3758227457,2154759427],{"source":2154759427,"group":3758227457,"current_bw":1000,"avg_bw":0,"forwarding":true,"learned_from":"Pim"}]],"participants":[[2154759426,{"host":2154759426,"name":null,"group_count":1,"first_seen":909878400}],[2154759427,{"host":2154759427,"name":null,"group_count":1,"first_seen":909878400}]],"sessions":[[3758227456,{"group":3758227456,"name":null,"density":0,"bandwidth":0,"first_advertised":"Msdp","first_seen":909878400}],[3758227457,{"group":3758227457,"name":null,"density":2,"bandwidth":65000,"first_advertised":"Dvmrp","first_seen":909878400}],[3758227463,{"group":3758227463,"name":"members only","density":0,"bandwidth":0,"first_advertised":"Igmp","first_seen":909878310}]],"routes":[[["Dvmrp",{"net":167772160,"len":8}],{"prefix":{"net":167772160,"len":8},"next_hop":176160770,"metric":3,"uptime":60,"reachable":false,"learned_from":"Dvmrp"}],[["Mbgp",{"net":2147680256,"len":16}],{"prefix":{"net":2147680256,"len":16},"next_hop":null,"metric":2,"uptime":null,"reachable":true,"learned_from":"Mbgp"}]],"sa_cache":[[[3758227465,2147681538],909878100]]}"#;

/// The same snapshot's pair table through `{:?}`: a map.
const PINNED_PAIRS_DEBUG: &str = "{(GroupAddr(224.2.0.0), Ip(0.0.0.0)): PairRow { source: Ip(0.0.0.0), group: GroupAddr(224.2.0.0), current_bw: BitRate(0 bps), avg_bw: BitRate(0 bps), forwarding: false, learned_from: Msdp }, (GroupAddr(224.2.0.1), Ip(128.111.5.2)): PairRow { source: Ip(128.111.5.2), group: GroupAddr(224.2.0.1), current_bw: BitRate(64.00 kbps), avg_bw: BitRate(32.00 kbps), forwarding: true, learned_from: Dvmrp }, (GroupAddr(224.2.0.1), Ip(128.111.5.3)): PairRow { source: Ip(128.111.5.3), group: GroupAddr(224.2.0.1), current_bw: BitRate(1.00 kbps), avg_bw: BitRate(0 bps), forwarding: true, learned_from: Pim }}";

/// A snapshot with every table filled, built row at a time, rows out of
/// key order.
fn pinned_snapshot() -> Tables {
    let at = SimTime::from_ymd(1998, 11, 1);
    let g = GroupAddr::from_index;
    let mut t = Tables::new("fixw", at);
    let pair = |source, group, kbps, learned_from| PairRow {
        source,
        group,
        current_bw: BitRate::from_kbps(kbps),
        avg_bw: BitRate::from_kbps(kbps / 2),
        forwarding: kbps > 0,
        learned_from,
    };
    t.add_pair(pair(Ip::new(128, 111, 5, 3), g(1), 1, LearnedFrom::Pim));
    t.add_pair(pair(Ip::new(128, 111, 5, 2), g(1), 64, LearnedFrom::Dvmrp));
    t.add_pair(pair(Ip::UNSPECIFIED, g(0), 0, LearnedFrom::Msdp));
    t.add_route(RouteRow {
        prefix: "128.3.0.0/16".parse().unwrap(),
        next_hop: None,
        metric: 2,
        uptime: None,
        reachable: true,
        learned_from: LearnedFrom::Mbgp,
    });
    t.add_route(RouteRow {
        prefix: "10.0.0.0/8".parse().unwrap(),
        next_hop: Some(Ip::new(10, 128, 0, 2)),
        metric: 3,
        uptime: Some(SimDuration::secs(60)),
        reachable: false,
        learned_from: LearnedFrom::Dvmrp,
    });
    t.sessions.insert(
        g(7),
        SessionRow {
            group: g(7),
            name: Some("members only".into()),
            density: 0,
            bandwidth: BitRate::ZERO,
            first_advertised: LearnedFrom::Igmp,
            first_seen: SimTime(at.as_secs() - 90),
        },
    );
    t.sa_cache
        .insert((g(9), Ip::new(128, 3, 5, 2)), SimTime(at.as_secs() - 300));
    t
}

#[test]
fn tables_serialise_as_the_pinned_entry_lists() {
    let t = pinned_snapshot();
    assert_eq!(serde_json::to_string(&t).unwrap(), PINNED_TABLES_JSON);
    assert_eq!(format!("{:?}", t.pairs), PINNED_PAIRS_DEBUG);
    let back: Tables = serde_json::from_str(PINNED_TABLES_JSON).unwrap();
    assert_eq!(back, t);
}
