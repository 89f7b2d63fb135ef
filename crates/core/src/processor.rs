//! The router-table processor: raw captures → Mantra's local tables.
//!
//! Each parser auto-detects the dialect (mrouted debug dump vs IOS `show`
//! output) from the capture's header line, tolerates unknown lines (real
//! dumps contain decorations the period tools simply skipped), and
//! accounts what it skipped so collection health is observable.
//!
//! The parsers read `&[u8]` fields straight off the capture buffer
//! ([`Capture`] keeps lines as spans, not `String`s): field splitting
//! tolerates runs of spaces/tabs, and integers, addresses, prefixes and
//! uptimes decode directly from bytes. Parsed rows go into a
//! [`TablesBuilder`], which hands its key-sorted runs over as the
//! snapshot's tables. The string-materialising parser this replaced, with
//! its row-at-a-time inserts into `BTreeMap`s of its own, lives on as the
//! test-support crate `mantra-oracle`'s `processor::process`,
//! property-tested byte-identical to this one (see
//! `tests/prop_parse.rs`); the two stay in lock-step because every anchor
//! the parsers match on is pure ASCII, and ASCII bytes can neither appear
//! inside a multi-byte UTF-8 sequence nor be introduced by lossy
//! decoding.
//!
//! An IOS `show ip mroute count` block is a header, at most one
//! `Incoming interface:` line and a counter line; a counter line only
//! ever completes the header directly before it, so a lost or garbled
//! line costs its own block and never books counters to another pair.

use mantra_net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};
use mantra_router_cli::TableKind;

use crate::collector::Capture;
use crate::tables::{LearnedFrom, PairRow, RouteRow, Tables, TablesBuilder};

/// Per-table-kind parse accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Rows successfully mapped into local tables.
    pub parsed: usize,
    /// Lines that looked like rows but failed to parse.
    pub malformed: usize,
    /// Header/decoration lines skipped by design.
    pub skipped: usize,
}

impl KindStats {
    /// Folds another accounting into this one.
    pub fn merge(&mut self, other: KindStats) {
        self.parsed += other.parsed;
        self.malformed += other.malformed;
        self.skipped += other.skipped;
    }
}

/// Per-capture parse accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Rows successfully mapped into local tables.
    pub parsed: usize,
    /// Lines that looked like rows but failed to parse.
    pub malformed: usize,
    /// Header/decoration lines skipped by design.
    pub skipped: usize,
    /// Captures rejected whole because the batch mixed routers — the
    /// snapshot would otherwise be silently stamped with the first
    /// capture's router and mislabel every other router's rows.
    pub rejected_mixed: usize,
    /// The same parsed/malformed/skipped accounting attributed per table
    /// kind, indexed by [`TableKind::index`].
    pub per_kind: [KindStats; TableKind::ALL.len()],
}

impl ParseStats {
    /// Folds another capture batch's accounting into this one.
    pub fn merge(&mut self, other: ParseStats) {
        self.parsed += other.parsed;
        self.malformed += other.malformed;
        self.skipped += other.skipped;
        self.rejected_mixed += other.rejected_mixed;
        for (mine, theirs) in self.per_kind.iter_mut().zip(other.per_kind) {
            mine.merge(theirs);
        }
    }

    /// The accounting attributed to one table kind.
    pub fn kind(&self, kind: TableKind) -> KindStats {
        self.per_kind[kind.index()]
    }

    /// Folds one capture's accounting in under its table kind.
    fn absorb_kind(&mut self, kind: TableKind, s: KindStats) {
        self.parsed += s.parsed;
        self.malformed += s.malformed;
        self.skipped += s.skipped;
        self.per_kind[kind.index()].merge(s);
    }
}

/// Processes a batch of captures (one collection cycle for one router)
/// into a table snapshot, parsing fields directly off the capture bytes
/// into a [`TablesBuilder`] and attributing the accounting per table
/// kind.
///
/// A batch spanning more than one router is rejected outright: the
/// resulting snapshot is empty and [`ParseStats::rejected_mixed`] counts
/// every capture in the batch, so the mislabelling is observable instead
/// of silent. Any other batch is stamped with its first capture's router
/// and capture time.
pub fn process(captures: &[Capture]) -> (Tables, ParseStats) {
    let mut stats = ParseStats::default();
    if let Some(first) = captures.first() {
        if captures.iter().any(|c| c.router != first.router) {
            stats.rejected_mixed = captures.len();
            return (Tables::default(), stats);
        }
    }
    let mut rows = TablesBuilder::new();
    for cap in captures {
        let s = match cap.kind {
            TableKind::DvmrpRoutes => parse_dvmrp_routes(cap, &mut rows),
            TableKind::ForwardingCache => parse_forwarding(cap, &mut rows),
            TableKind::IgmpGroups => parse_igmp(cap, &mut rows),
            TableKind::MbgpRoutes => parse_mbgp(cap, &mut rows),
            TableKind::SaCache => parse_sa_cache(cap, &mut rows),
        };
        stats.absorb_kind(cap.kind, s);
    }
    let first = captures.first();
    let tables = rows.build(
        first.map_or("", |c| c.router.as_str()),
        first.map(|c| c.captured_at).unwrap_or_default(),
    );
    (tables, stats)
}

// ---------------------------------------------------------------------
// Byte-slice parsing primitives
// ---------------------------------------------------------------------

/// Iterator over whitespace-separated fields of a line, tolerant of runs
/// of spaces and tabs — the byte twin of `str::split_ascii_whitespace`.
struct Fields<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.rest.iter().position(|b| !b.is_ascii_whitespace())?;
        let rest = &self.rest[start..];
        let end = rest
            .iter()
            .position(u8::is_ascii_whitespace)
            .unwrap_or(rest.len());
        self.rest = &rest[end..];
        Some(&rest[..end])
    }
}

/// Splits a line into whitespace-run-separated fields.
fn fields(line: &[u8]) -> Fields<'_> {
    Fields { rest: line }
}

/// Trims ASCII whitespace from both ends.
fn trim(mut s: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = s {
        if !first.is_ascii_whitespace() {
            break;
        }
        s = rest;
    }
    while let [rest @ .., last] = s {
        if !last.is_ascii_whitespace() {
            break;
        }
        s = rest;
    }
    s
}

/// First occurrence of `needle` in `hay` (`needle` must be non-empty).
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Decimal `u32` off bytes, mirroring `str::parse::<u32>`: an optional
/// leading `+`, then one or more ASCII digits, overflow rejected.
fn parse_u32(s: &[u8]) -> Option<u32> {
    let digits = s.strip_prefix(b"+").unwrap_or(s);
    if digits.is_empty() {
        return None;
    }
    let mut v: u32 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u32::from(b - b'0'))?;
    }
    Some(v)
}

/// Decimal `u64` off bytes, mirroring `str::parse::<u64>`.
fn parse_u64(s: &[u8]) -> Option<u64> {
    let digits = s.strip_prefix(b"+").unwrap_or(s);
    if digits.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some(v)
}

/// `f64` off bytes. Floats are rare (one mrouted rate column), so this
/// validates UTF-8 in place and defers to `str::parse` — still zero-copy,
/// and exactly the grammar the string parser accepted.
fn parse_f64(s: &[u8]) -> Option<f64> {
    std::str::from_utf8(s).ok()?.parse().ok()
}

/// Parses `hh:mm:ss` or `NdHHh` IOS uptimes off bytes.
fn parse_uptime_bytes(s: &[u8]) -> Option<SimDuration> {
    if let Some(d) = s.iter().position(|&b| b == b'd') {
        let days = parse_u64(&s[..d])?;
        let hours = parse_u64(s[d + 1..].strip_suffix(b"h")?)?;
        return Some(SimDuration::days(days) + SimDuration::hours(hours));
    }
    let mut parts = s.split(|&b| b == b':');
    let h = parse_u64(parts.next()?)?;
    let m = parse_u64(parts.next()?)?;
    let sec = parse_u64(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    Some(SimDuration::secs(h * 3_600 + m * 60 + sec))
}

/// Splits `(src, grp)…` into trimmed source and group texts plus the
/// remainder after the closing parenthesis.
fn split_pair_head(line: &[u8]) -> Option<(&[u8], &[u8], &[u8])> {
    let inner = line.strip_prefix(b"(")?;
    let comma = inner.iter().position(|&b| b == b',')?;
    let src = trim(&inner[..comma]);
    let rest = &inner[comma + 1..];
    let paren = rest.iter().position(|&b| b == b')')?;
    let grp = trim(&rest[..paren]);
    Some((src, grp, &rest[paren + 1..]))
}

// ---------------------------------------------------------------------
// DVMRP route tables
// ---------------------------------------------------------------------

fn parse_dvmrp_routes(cap: &Capture, rows: &mut TablesBuilder) -> KindStats {
    let mut st = KindStats::default();
    let ios = cap.line_count() > 0 && find(cap.line(0), b"DVMRP Routing Table -").is_some();
    for line in cap.lines() {
        if line.starts_with(b"DVMRP Routing Table")
            || line.starts_with(b"Origin-Subnet")
            || line.starts_with(b"%")
            || line.starts_with(b"mrouted:")
        {
            st.skipped += 1;
            continue;
        }
        let parsed = if ios {
            parse_ios_dvmrp_row(line)
        } else {
            parse_mrouted_route_row(line)
        };
        match parsed {
            Some(row) => {
                rows.route(row);
                st.parsed += 1;
            }
            None => st.malformed += 1,
        }
    }
    st
}

/// `128.111.0.0/16 10.128.0.2 3 25 1 1*` or gateway `direct` / `--`.
fn parse_mrouted_route_row(line: &[u8]) -> Option<RouteRow> {
    let mut f = fields(line);
    let prefix = Prefix::parse_bytes(f.next()?).ok()?;
    let gw = f.next()?;
    let metric = parse_u32(f.next()?)?;
    let (next_hop, reachable) = match gw {
        b"direct" => (None, true),
        b"--" => (None, false),
        other => (Some(Ip::parse_bytes(other).ok()?), true),
    };
    Some(RouteRow {
        prefix,
        next_hop,
        metric,
        uptime: None,
        reachable,
        learned_from: LearnedFrom::Dvmrp,
    })
}

/// `10.3.0.0/16 [1/3] via 10.128.0.6 uptime 04:23:00` or
/// `… directly connected uptime …` / `… unreachable uptime … H`.
fn parse_ios_dvmrp_row(line: &[u8]) -> Option<RouteRow> {
    let mut f = fields(line);
    let prefix = Prefix::parse_bytes(f.next()?).ok()?;
    let bracket = f.next()?; // [ad/metric]
    let ad_metric = bracket.strip_prefix(b"[")?.strip_suffix(b"]")?;
    let slash = ad_metric.iter().position(|&b| b == b'/')?;
    let metric = parse_u32(&ad_metric[slash + 1..])?;
    let kind = f.next()?;
    let (next_hop, reachable) = match kind {
        b"via" => (Some(Ip::parse_bytes(f.next()?).ok()?), true),
        b"directly" => {
            f.next()?; // "connected"
            (None, true)
        }
        b"unreachable" => (None, false),
        _ => return None,
    };
    let mut uptime = None;
    while let Some(w) = f.next() {
        if w == b"uptime" {
            uptime = f.next().and_then(parse_uptime_bytes);
            break;
        }
    }
    Some(RouteRow {
        prefix,
        next_hop,
        metric,
        uptime,
        reachable,
        learned_from: LearnedFrom::Dvmrp,
    })
}

// ---------------------------------------------------------------------
// Forwarding caches
// ---------------------------------------------------------------------

fn parse_forwarding(cap: &Capture, rows: &mut TablesBuilder) -> KindStats {
    let ios = cap.line_count() > 0 && cap.line(0).starts_with(b"IP Multicast Statistics");
    if ios {
        parse_ios_mroute(cap, rows)
    } else {
        parse_mrouted_cache(cap, rows)
    }
}

/// mrouted cache rows:
/// `1.2.3.4 224.2.0.5 150 4m 0 3.2k 1 2 3` (oifs) or trailing `P`.
fn parse_mrouted_cache(cap: &Capture, rows: &mut TablesBuilder) -> KindStats {
    let mut st = KindStats::default();
    for line in cap.lines() {
        if line.starts_with(b"Multicast Routing Cache")
            || line.starts_with(b"Origin")
            || line.starts_with(b"mrouted:")
        {
            st.skipped += 1;
            continue;
        }
        let row = (|| {
            let mut f = fields(line);
            let source = Ip::parse_bytes(f.next()?).ok()?;
            let group = GroupAddr::parse_bytes(f.next()?).ok()?;
            let _ctmr = f.next()?;
            let _age = f.next()?;
            let _ptmr = f.next()?;
            let kbps = parse_f64(f.next()?.strip_suffix(b"k")?)?;
            let _ivif = f.next()?;
            // Remaining fields are the outgoing vif list; a bare `P` (or
            // nothing) marks a pruned entry.
            let fw0 = f.next();
            let forwarding = match fw0 {
                None => false,
                Some(b"P") => f.next().is_some(),
                Some(_) => true,
            };
            Some(PairRow {
                source,
                group,
                current_bw: BitRate::from_bps((kbps * 1_000.0) as u64),
                avg_bw: BitRate::from_bps((kbps * 1_000.0) as u64),
                forwarding,
                learned_from: LearnedFrom::Dvmrp,
            })
        })();
        match row {
            Some(r) => {
                rows.pair(r);
                st.parsed += 1;
            }
            None => st.malformed += 1,
        }
    }
    st
}

/// An IOS mroute header waiting for the counter line that completes it.
struct PendingPair {
    source: Ip,
    group: GroupAddr,
    learned: LearnedFrom,
    forwarding: bool,
    /// Whether the block's one `Incoming interface:` line has been read.
    interface_seen: bool,
}

/// IOS `show ip mroute count` blocks: a header pair line, at most one
/// interface line, then the counter line that completes the pair. Any
/// other line ends the pending block, so a counter line that does not
/// belong to the header directly before it counts as malformed instead
/// of completing an earlier pair.
fn parse_ios_mroute(cap: &Capture, rows: &mut TablesBuilder) -> KindStats {
    let mut st = KindStats::default();
    let mut pending: Option<PendingPair> = None;
    for line in cap.lines() {
        let open = pending.take();
        if line.starts_with(b"(") {
            match parse_ios_mroute_header(line) {
                Some(p) => {
                    pending = Some(p);
                    st.parsed += 1;
                }
                None => st.malformed += 1,
            }
        } else if line.starts_with(b"Incoming interface:") {
            pending = open.filter(|p| !p.interface_seen).map(|mut p| {
                p.interface_seen = true;
                p.forwarding &= !line.ends_with(b"Outgoing: Null");
                p
            });
            st.skipped += 1;
        } else if line.starts_with(b"Pkt count") {
            // `Pkt count 123, bytes 4567, rate 12 kbps`
            let Some(p) = open else {
                st.malformed += 1;
                continue;
            };
            let mut kbps = 0u64;
            let mut f = fields(line);
            while let Some(w) = f.next() {
                if w == b"rate" {
                    kbps = f.next().and_then(parse_u64).unwrap_or(0);
                    break;
                }
            }
            rows.pair(PairRow {
                source: p.source,
                group: p.group,
                current_bw: BitRate::from_kbps(kbps),
                avg_bw: BitRate::from_kbps(kbps),
                forwarding: p.forwarding,
                learned_from: p.learned,
            });
            st.parsed += 1;
        } else {
            st.skipped += 1;
        }
    }
    st
}

/// `(1.2.3.4, 224.2.0.5), uptime 00:01:02, flags: SP`
fn parse_ios_mroute_header(line: &[u8]) -> Option<PendingPair> {
    let (src_s, grp_s, rest) = split_pair_head(line)?;
    let source = if src_s == b"*" {
        Ip::UNSPECIFIED
    } else {
        Ip::parse_bytes(src_s).ok()?
    };
    let group = GroupAddr::parse_bytes(grp_s).ok()?;
    let flags = match find(rest, b"flags:") {
        Some(p) => trim(&rest[p + b"flags:".len()..]),
        None => &b""[..],
    };
    let learned = if flags.contains(&b'M') {
        LearnedFrom::Msdp
    } else if flags.contains(&b'S') {
        LearnedFrom::Pim
    } else {
        LearnedFrom::Dvmrp
    };
    Some(PendingPair {
        source,
        group,
        learned,
        forwarding: !flags.contains(&b'P'),
        interface_seen: false,
    })
}

// ---------------------------------------------------------------------
// IGMP, MBGP, MSDP
// ---------------------------------------------------------------------

fn parse_igmp(cap: &Capture, rows: &mut TablesBuilder) -> KindStats {
    let mut st = KindStats::default();
    for line in cap.lines() {
        // mrouted: `0 224.2.0.5 3 12s ago`; IOS: `224.2.0.5 Vif2 00:01:02 h3`.
        let mut f = fields(line);
        let first = match f.next() {
            Some(w) => w,
            None => continue,
        };
        let group: Option<GroupAddr> = if parse_u32(first).is_some() {
            f.next().and_then(|g| GroupAddr::parse_bytes(g).ok())
        } else {
            GroupAddr::parse_bytes(first).ok()
        };
        match group {
            Some(g) => {
                // Membership implies a session exists even with no (S,G)
                // state yet; record it without inventing participants.
                rows.igmp(g, cap.captured_at);
                st.parsed += 1;
            }
            None => st.skipped += 1,
        }
    }
    st
}

fn parse_mbgp(cap: &Capture, rows: &mut TablesBuilder) -> KindStats {
    let mut st = KindStats::default();
    for line in cap.lines() {
        let mut f = fields(line);
        if f.next() != Some(b"*>") {
            st.skipped += 1;
            continue;
        }
        let row = (|| {
            let prefix = Prefix::parse_bytes(f.next()?).ok()?;
            let nh = Ip::parse_bytes(f.next()?).ok()?;
            let hops = f.filter(|w| *w != b"i").count() as u32;
            Some(RouteRow {
                prefix,
                next_hop: if nh.is_unspecified() { None } else { Some(nh) },
                metric: hops,
                uptime: None,
                reachable: true,
                learned_from: LearnedFrom::Mbgp,
            })
        })();
        match row {
            Some(r) => {
                rows.route(r);
                st.parsed += 1;
            }
            None => st.malformed += 1,
        }
    }
    st
}

fn parse_sa_cache(cap: &Capture, rows: &mut TablesBuilder) -> KindStats {
    let mut st = KindStats::default();
    for line in cap.lines() {
        if !line.starts_with(b"(") {
            st.skipped += 1;
            continue;
        }
        let entry = (|| {
            let (src_s, grp_s, rest) = split_pair_head(line)?;
            let source = Ip::parse_bytes(src_s).ok()?;
            let group = GroupAddr::parse_bytes(grp_s).ok()?;
            let mut learned = SimDuration::ZERO;
            let mut f = fields(rest);
            while let Some(w) = f.next() {
                if w == b"learned" {
                    learned = f
                        .next()
                        .and_then(parse_uptime_bytes)
                        .unwrap_or(SimDuration::ZERO);
                    break;
                }
            }
            Some((group, source, learned))
        })();
        match entry {
            Some((g, s, ago)) => {
                let first = SimTime(cap.captured_at.as_secs().saturating_sub(ago.as_secs()));
                rows.sa(g, s, first);
                st.parsed += 1;
            }
            None => st.malformed += 1,
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::preprocess;

    fn t0() -> SimTime {
        SimTime::from_ymd(1998, 11, 1)
    }

    fn cap(kind: TableKind, text: &str) -> Capture {
        preprocess("r", kind, text, t0())
    }

    /// Every raw text a unit test below feeds the parser
    /// (`tests/prop_parse.rs` holds the same corpus to the string parser).
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
    fn uptime_parsing() {
        for (s, want) in [
            ("04:23:07", Some(SimDuration::secs(15_787))),
            ("3d04h", Some(SimDuration::days(3) + SimDuration::hours(4))),
            ("garbage", None),
            ("1:2", None),
            ("", None),
            ("1:2:3:4", None),
            ("d04h", None),
        ] {
            assert_eq!(parse_uptime_bytes(s.as_bytes()), want, "{s:?}");
        }
    }

    #[test]
    fn byte_integer_parsers_mirror_str_parse() {
        for s in [
            "0",
            "42",
            "+7",
            "007",
            "",
            "+",
            "4 2",
            "-1",
            "4294967295",
            "4294967296",
        ] {
            assert_eq!(parse_u32(s.as_bytes()), s.parse::<u32>().ok(), "{s:?}");
            assert_eq!(parse_u64(s.as_bytes()), s.parse::<u64>().ok(), "{s:?}");
        }
        assert_eq!(
            parse_u64(b"18446744073709551616"),
            "18446744073709551616".parse::<u64>().ok()
        );
    }

    #[test]
    fn mrouted_route_table() {
        let (tables, st) = process(&[cap(TableKind::DvmrpRoutes, UNIT_CORPUS[0].1)]);
        assert_eq!(st.parsed, 3);
        assert_eq!(st.malformed, 0);
        assert_eq!(tables.routes.len(), 3);
        assert_eq!(tables.reachable_dvmrp_routes(), 2);
        let r = &tables.routes[&(LearnedFrom::Dvmrp, "128.111.0.0/16".parse().unwrap())];
        assert_eq!(r.next_hop, Some(Ip::new(10, 128, 0, 2)));
        assert_eq!(r.metric, 3);
        // Accounting attributed under the capture's kind.
        assert_eq!(st.kind(TableKind::DvmrpRoutes).parsed, 3);
        assert_eq!(st.kind(TableKind::DvmrpRoutes).skipped, st.skipped);
        assert_eq!(st.kind(TableKind::MbgpRoutes), KindStats::default());
    }

    #[test]
    fn fields_tolerate_space_and_tab_runs() {
        // Raw captures space columns unevenly and sometimes with tabs; the
        // field scanner must not depend on single-space separators.
        let text = "DVMRP Routing Table (2 entries)\n 128.111.0.0/16 \t 10.128.0.2\t\t3   25  1  1*\n 10.5.0.0/24\tdirect\t1  0  0  1*\n";
        let (tables, st) = process(&[cap(TableKind::DvmrpRoutes, text)]);
        assert_eq!(st.parsed, 2, "{st:?}");
        assert_eq!(st.malformed, 0);
        assert_eq!(tables.routes.len(), 2);
        let mb = "*> \t128.3.0.0/16 \t 10.128.0.9   65002\t65003 i\n";
        let (tables, st) = process(&[cap(TableKind::MbgpRoutes, mb)]);
        assert_eq!(st.parsed, 1, "{st:?}");
        let r = &tables.routes[&(LearnedFrom::Mbgp, "128.3.0.0/16".parse().unwrap())];
        assert_eq!(r.metric, 2);
    }

    #[test]
    fn ios_dvmrp_table() {
        let (tables, st) = process(&[cap(TableKind::DvmrpRoutes, UNIT_CORPUS[1].1)]);
        assert_eq!(st.parsed, 3, "{st:?}");
        assert_eq!(tables.reachable_dvmrp_routes(), 2);
        let r = &tables.routes[&(LearnedFrom::Dvmrp, "128.111.0.0/16".parse().unwrap())];
        assert_eq!(r.uptime, Some(SimDuration::secs(4 * 3600 + 23 * 60)));
    }

    #[test]
    fn mrouted_cache() {
        let (tables, st) = process(&[cap(TableKind::ForwardingCache, UNIT_CORPUS[2].1)]);
        assert_eq!(st.parsed, 2);
        assert_eq!(tables.pairs.len(), 2);
        let sg = ("224.2.0.1".parse().unwrap(), "128.111.5.2".parse().unwrap());
        assert_eq!(tables.pairs[&sg].current_bw, BitRate::from_kbps(64));
        assert!(tables.pairs[&sg].forwarding);
        let pruned = ("224.2.0.2".parse().unwrap(), "128.111.5.3".parse().unwrap());
        assert!(!tables.pairs[&pruned].forwarding);
        // Derived tables populated.
        assert_eq!(tables.participants.len(), 2);
        assert_eq!(tables.sessions.len(), 2);
    }

    #[test]
    fn ios_mroute_blocks() {
        let (tables, st) = process(&[cap(TableKind::ForwardingCache, UNIT_CORPUS[3].1)]);
        assert_eq!(st.malformed, 0, "{st:?}");
        assert_eq!(tables.pairs.len(), 2);
        let sg = ("224.2.0.1".parse().unwrap(), "128.111.5.2".parse().unwrap());
        assert_eq!(tables.pairs[&sg].current_bw, BitRate::from_kbps(64));
        assert_eq!(tables.pairs[&sg].learned_from, LearnedFrom::Pim);
        let star = ("224.2.0.2".parse().unwrap(), Ip::UNSPECIFIED);
        assert!(!tables.pairs[&star].forwarding);
        // Wildcard rows don't fabricate participants.
        assert_eq!(tables.participants.len(), 1);
    }

    #[test]
    fn ios_counters_complete_only_the_header_directly_before_them() {
        // The first block lost its counter line and the second block's
        // header is garbled: the second block's counters belong to no
        // parsed header, so they are malformed, not the first pair's.
        // The third block has no interface line; its counters still
        // complete it.
        let (tables, st) = process(&[cap(TableKind::ForwardingCache, UNIT_CORPUS[10].1)]);
        assert_eq!((st.parsed, st.malformed, st.skipped), (3, 2, 3), "{st:?}");
        assert_eq!(tables.pairs.len(), 1, "{:?}", tables.pairs);
        let sg = ("224.2.0.3".parse().unwrap(), Ip::new(1, 1, 1, 3));
        assert_eq!(tables.pairs[&sg].current_bw, BitRate::from_kbps(7));
        assert!(tables.pairs[&sg].forwarding);
    }

    #[test]
    fn mbgp_table() {
        let (tables, st) = process(&[cap(TableKind::MbgpRoutes, UNIT_CORPUS[4].1)]);
        assert_eq!(st.parsed, 2, "{st:?}");
        let r = &tables.routes[&(LearnedFrom::Mbgp, "128.3.0.0/16".parse().unwrap())];
        assert_eq!(r.metric, 2, "AS-path length as metric");
        let local = &tables.routes[&(LearnedFrom::Mbgp, "128.4.0.0/16".parse().unwrap())];
        assert_eq!(local.next_hop, None);
    }

    #[test]
    fn sa_cache_table() {
        let (tables, st) = process(&[cap(TableKind::SaCache, UNIT_CORPUS[5].1)]);
        assert_eq!(st.parsed, 2, "{st:?}");
        assert_eq!(tables.sa_cache.len(), 2);
        let key = ("224.2.0.9".parse().unwrap(), "128.3.5.2".parse().unwrap());
        assert_eq!(tables.sa_cache[&key], SimTime(t0().as_secs() - 300));
        // SA entries do not fabricate pairs or participants.
        assert!(tables.pairs.is_empty());
        assert!(tables.participants.is_empty());
    }

    #[test]
    fn igmp_creates_sessions_without_participants() {
        let (tables, st) = process(&[cap(TableKind::IgmpGroups, UNIT_CORPUS[6].1)]);
        assert!(st.parsed >= 1);
        assert!(tables.sessions.contains_key(&"224.2.0.7".parse().unwrap()));
        assert!(tables.participants.is_empty());
        assert_eq!(st.kind(TableKind::IgmpGroups).parsed, st.parsed);
    }

    #[test]
    fn malformed_rows_are_counted_not_fatal() {
        let (tables, st) = process(&[cap(TableKind::DvmrpRoutes, UNIT_CORPUS[7].1)]);
        assert_eq!(st.parsed, 1);
        assert_eq!(st.malformed, 1);
        assert_eq!(st.kind(TableKind::DvmrpRoutes).malformed, 1);
        assert_eq!(tables.routes.len(), 1);
    }

    #[test]
    fn mixed_router_batches_are_rejected_not_mislabelled() {
        let a = preprocess(
            "fixw",
            TableKind::DvmrpRoutes,
            "DVMRP Routing Table (1 entries)\n 128.111.0.0/16 10.128.0.2 3 25 1 1*\n",
            t0(),
        );
        let b = preprocess(
            "ucsb-gw",
            TableKind::DvmrpRoutes,
            "DVMRP Routing Table (1 entries)\n 10.5.0.0/24 direct 1 0 0 1*\n",
            t0(),
        );
        let (tables, st) = process(&[a.clone(), b]);
        assert_eq!(st.rejected_mixed, 2);
        assert_eq!(st.parsed, 0);
        assert_eq!(st.per_kind, <[KindStats; 5]>::default());
        assert!(tables.routes.is_empty());
        assert!(tables.router.is_empty());
        // A single-router batch is unaffected.
        let (tables, st) = process(&[a]);
        assert_eq!(st.rejected_mixed, 0);
        assert_eq!(st.parsed, 1);
        assert_eq!(tables.router, "fixw");
    }

    #[test]
    fn error_responses_parse_to_empty() {
        let (tables, _) = process(&[
            cap(TableKind::MbgpRoutes, UNIT_CORPUS[8].1),
            cap(TableKind::SaCache, UNIT_CORPUS[9].1),
        ]);
        assert!(tables.routes.is_empty());
        assert!(tables.sa_cache.is_empty());
    }
}
