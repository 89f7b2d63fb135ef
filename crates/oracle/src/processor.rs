//! The string parser: each capture's lines materialised as owned
//! `String`s (lossily decoded), every row parsed through `str` APIs and
//! inserted into `BTreeMap`s one row at a time, the snapshot converted to
//! [`Tables`] once at the end. Same dialect detection, same row grammars
//! and same accounting as the shipped zero-copy byte parser, which
//! `tests/prop_parse.rs` holds byte-identical to this one and the
//! `ablation_parse` bench measures against it. The maps are its own, so
//! the reference shares neither the shipped builder nor the insert path
//! of the tables' sorted map.

use std::collections::BTreeMap;

use mantra_core::collector::Capture;
use mantra_core::processor::{KindStats, ParseStats};
use mantra_core::tables::{LearnedFrom, PairRow, ParticipantRow, RouteRow, SessionRow, Tables};
use mantra_net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};
use mantra_router_cli::TableKind;

/// Processes a batch of captures exactly like
/// `mantra_core::processor::process`: a batch spanning more than one
/// router is rejected whole, every other batch becomes one snapshot
/// stamped with its first capture's router and time.
pub fn process(captures: &[Capture]) -> (Tables, ParseStats) {
    let mut stats = ParseStats::default();
    if let Some(first) = captures.first() {
        if captures.iter().any(|c| c.router != first.router) {
            stats.rejected_mixed = captures.len();
            return (Tables::default(), stats);
        }
    }
    let at = captures.first().map(|c| c.captured_at).unwrap_or_default();
    let mut maps = Maps::default();
    for cap in captures {
        let lines = cap.text_lines();
        let s = match cap.kind {
            TableKind::DvmrpRoutes => parse_dvmrp_routes(&lines, &mut maps),
            TableKind::ForwardingCache => parse_forwarding(&lines, &mut maps, at),
            TableKind::IgmpGroups => parse_igmp(cap, &lines, &mut maps),
            TableKind::MbgpRoutes => parse_mbgp(&lines, &mut maps),
            TableKind::SaCache => parse_sa_cache(cap, &lines, &mut maps),
        };
        stats.parsed += s.parsed;
        stats.malformed += s.malformed;
        stats.skipped += s.skipped;
        stats.per_kind[cap.kind.index()].merge(s);
    }
    let router = captures.first().map_or("", |c| c.router.as_str());
    (maps.into_tables(router, at), stats)
}

/// The snapshot under construction, one `BTreeMap` per table.
#[derive(Default)]
struct Maps {
    pairs: BTreeMap<(GroupAddr, Ip), PairRow>,
    participants: BTreeMap<Ip, ParticipantRow>,
    sessions: BTreeMap<GroupAddr, SessionRow>,
    routes: BTreeMap<(LearnedFrom, Prefix), RouteRow>,
    sa_cache: BTreeMap<(GroupAddr, Ip), SimTime>,
}

impl Maps {
    /// Inserts a pair captured at `at` and folds it into its participant
    /// and session: a wildcard source makes no participant and adds no
    /// density, and a session keeps the highest-precedence protocol.
    fn add_pair(&mut self, row: PairRow, at: SimTime) {
        let (source, group) = (row.source, row.group);
        let (learned, bw) = (row.learned_from, row.current_bw);
        self.pairs.insert((group, source), row);
        if !source.is_unspecified() {
            let p = self
                .participants
                .entry(source)
                .or_insert_with(|| ParticipantRow {
                    host: source,
                    name: None,
                    group_count: 0,
                    first_seen: at,
                });
            p.group_count += 1;
        }
        let s = self.sessions.entry(group).or_insert_with(|| SessionRow {
            group,
            name: None,
            density: 0,
            bandwidth: BitRate::ZERO,
            first_advertised: learned,
            first_seen: at,
        });
        if !source.is_unspecified() {
            s.density += 1;
        }
        s.bandwidth += bw;
        s.first_advertised = s.first_advertised.min(learned);
    }

    fn add_route(&mut self, row: RouteRow) {
        self.routes.insert((row.learned_from, row.prefix), row);
    }

    /// The finished snapshot: each map handed over in key order.
    fn into_tables(self, router: &str, at: SimTime) -> Tables {
        Tables {
            captured_at: at,
            router: router.to_string(),
            pairs: self.pairs.into_iter().collect(),
            participants: self.participants.into_iter().collect(),
            sessions: self.sessions.into_iter().collect(),
            routes: self.routes.into_iter().collect(),
            sa_cache: self.sa_cache.into_iter().collect(),
        }
    }
}

/// Parses `hh:mm:ss` or `NdHHh` IOS uptimes.
fn parse_uptime(s: &str) -> Option<SimDuration> {
    if let Some((d, rest)) = s.split_once('d') {
        let days: u64 = d.parse().ok()?;
        let hours: u64 = rest.strip_suffix('h')?.parse().ok()?;
        return Some(SimDuration::days(days) + SimDuration::hours(hours));
    }
    let mut parts = s.split(':');
    let h: u64 = parts.next()?.parse().ok()?;
    let m: u64 = parts.next()?.parse().ok()?;
    let sec: u64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(SimDuration::secs(h * 3_600 + m * 60 + sec))
}

/// Splits `(src, grp)…` into trimmed source and group texts plus the
/// remainder after the closing parenthesis.
fn split_pair_head(line: &str) -> Option<(&str, &str, &str)> {
    let inner = line.strip_prefix('(')?;
    let (src_s, rest) = inner.split_once(',')?;
    let (grp_s, rest) = rest.split_once(')')?;
    Some((src_s.trim(), grp_s.trim(), rest))
}

fn parse_dvmrp_routes(lines: &[String], maps: &mut Maps) -> KindStats {
    let mut st = KindStats::default();
    let ios = lines
        .first()
        .is_some_and(|l| l.contains("DVMRP Routing Table -"));
    for line in lines {
        if line.starts_with("DVMRP Routing Table")
            || line.starts_with("Origin-Subnet")
            || line.starts_with('%')
            || line.starts_with("mrouted:")
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
                maps.add_route(row);
                st.parsed += 1;
            }
            None => st.malformed += 1,
        }
    }
    st
}

fn parse_mrouted_route_row(line: &str) -> Option<RouteRow> {
    let mut f = line.split_ascii_whitespace();
    let prefix: Prefix = f.next()?.parse().ok()?;
    let gw = f.next()?;
    let metric: u32 = f.next()?.parse().ok()?;
    let (next_hop, reachable) = match gw {
        "direct" => (None, true),
        "--" => (None, false),
        other => (Some(other.parse().ok()?), true),
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

fn parse_ios_dvmrp_row(line: &str) -> Option<RouteRow> {
    let mut f = line.split_ascii_whitespace();
    let prefix: Prefix = f.next()?.parse().ok()?;
    let bracket = f.next()?; // [ad/metric]
    let metric: u32 = bracket
        .strip_prefix('[')?
        .strip_suffix(']')?
        .split_once('/')?
        .1
        .parse()
        .ok()?;
    let kind = f.next()?;
    let (next_hop, reachable) = match kind {
        "via" => (Some(f.next()?.parse().ok()?), true),
        "directly" => {
            f.next()?; // "connected"
            (None, true)
        }
        "unreachable" => (None, false),
        _ => return None,
    };
    let mut uptime = None;
    while let Some(w) = f.next() {
        if w == "uptime" {
            uptime = f.next().and_then(parse_uptime);
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

fn parse_forwarding(lines: &[String], maps: &mut Maps, at: SimTime) -> KindStats {
    let ios = lines
        .first()
        .is_some_and(|l| l.starts_with("IP Multicast Statistics"));
    if ios {
        parse_ios_mroute(lines, maps, at)
    } else {
        parse_mrouted_cache(lines, maps, at)
    }
}

fn parse_mrouted_cache(lines: &[String], maps: &mut Maps, at: SimTime) -> KindStats {
    let mut st = KindStats::default();
    for line in lines {
        if line.starts_with("Multicast Routing Cache")
            || line.starts_with("Origin")
            || line.starts_with("mrouted:")
        {
            st.skipped += 1;
            continue;
        }
        let row = (|| {
            let mut f = line.split_ascii_whitespace();
            let source: Ip = f.next()?.parse().ok()?;
            let group: GroupAddr = f.next()?.parse().ok()?;
            let _ctmr = f.next()?;
            let _age = f.next()?;
            let _ptmr = f.next()?;
            let kbps: f64 = f.next()?.strip_suffix('k')?.parse().ok()?;
            let _ivif = f.next()?;
            let fw0 = f.next();
            let forwarding = match fw0 {
                None => false,
                Some("P") => f.next().is_some(),
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
                maps.add_pair(r, at);
                st.parsed += 1;
            }
            None => st.malformed += 1,
        }
    }
    st
}

/// IOS `show ip mroute count` blocks. A counter line completes the
/// header directly before it, or the header before that header's one
/// interface line; any other line ends the block.
fn parse_ios_mroute(lines: &[String], maps: &mut Maps, at: SimTime) -> KindStats {
    let mut st = KindStats::default();
    // The header awaiting its counters (source, group, protocol, whether
    // forwarding) and how many interface lines have followed it.
    let mut pending: Option<((Ip, GroupAddr, LearnedFrom, bool), u8)> = None;
    for line in lines {
        let open = pending.take();
        if line.starts_with('(') {
            let header = (|| {
                let (src_s, grp_s, rest) = split_pair_head(line)?;
                let source = if src_s == "*" {
                    Ip::UNSPECIFIED
                } else {
                    src_s.parse().ok()?
                };
                let group: GroupAddr = grp_s.parse().ok()?;
                let flags = match rest.find("flags:") {
                    Some(p) => rest[p + "flags:".len()..].trim(),
                    None => "",
                };
                let learned = if flags.contains('M') {
                    LearnedFrom::Msdp
                } else if flags.contains('S') {
                    LearnedFrom::Pim
                } else {
                    LearnedFrom::Dvmrp
                };
                Some((source, group, learned, !flags.contains('P')))
            })();
            match header {
                Some(h) => {
                    pending = Some((h, 0));
                    st.parsed += 1;
                }
                None => st.malformed += 1,
            }
        } else if line.starts_with("Incoming interface:") {
            if let Some(((s, g, learned, forwarding), 0)) = open {
                let forwarding = forwarding && !line.ends_with("Outgoing: Null");
                pending = Some(((s, g, learned, forwarding), 1));
            }
            st.skipped += 1;
        } else if line.starts_with("Pkt count") {
            let Some(((source, group, learned, forwarding), _)) = open else {
                st.malformed += 1;
                continue;
            };
            let mut kbps = 0u64;
            let mut f = line.split_ascii_whitespace();
            while let Some(w) = f.next() {
                if w == "rate" {
                    kbps = f.next().and_then(|n| n.parse().ok()).unwrap_or(0);
                    break;
                }
            }
            maps.add_pair(
                PairRow {
                    source,
                    group,
                    current_bw: BitRate::from_kbps(kbps),
                    avg_bw: BitRate::from_kbps(kbps),
                    forwarding,
                    learned_from: learned,
                },
                at,
            );
            st.parsed += 1;
        } else {
            st.skipped += 1;
        }
    }
    st
}

fn parse_igmp(cap: &Capture, lines: &[String], maps: &mut Maps) -> KindStats {
    let mut st = KindStats::default();
    for line in lines {
        let mut f = line.split_ascii_whitespace();
        let first = match f.next() {
            Some(w) => w,
            None => continue,
        };
        let group: Option<GroupAddr> = if first.parse::<u32>().is_ok() {
            f.next().and_then(|g| g.parse().ok())
        } else {
            first.parse().ok()
        };
        match group {
            Some(g) => {
                let at = cap.captured_at;
                maps.sessions.entry(g).or_insert_with(|| SessionRow {
                    group: g,
                    name: None,
                    density: 0,
                    bandwidth: BitRate::ZERO,
                    first_advertised: LearnedFrom::Igmp,
                    first_seen: at,
                });
                st.parsed += 1;
            }
            None => st.skipped += 1,
        }
    }
    st
}

fn parse_mbgp(lines: &[String], maps: &mut Maps) -> KindStats {
    let mut st = KindStats::default();
    for line in lines {
        let mut f = line.split_ascii_whitespace();
        if f.next() != Some("*>") {
            st.skipped += 1;
            continue;
        }
        let row = (|| {
            let prefix: Prefix = f.next()?.parse().ok()?;
            let nh: Ip = f.next()?.parse().ok()?;
            let hops = f.filter(|w| *w != "i").count() as u32;
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
                maps.add_route(r);
                st.parsed += 1;
            }
            None => st.malformed += 1,
        }
    }
    st
}

fn parse_sa_cache(cap: &Capture, lines: &[String], maps: &mut Maps) -> KindStats {
    let mut st = KindStats::default();
    for line in lines {
        if !line.starts_with('(') {
            st.skipped += 1;
            continue;
        }
        let entry = (|| {
            let (src_s, grp_s, rest) = split_pair_head(line)?;
            let source: Ip = src_s.parse().ok()?;
            let group: GroupAddr = grp_s.parse().ok()?;
            let mut learned = SimDuration::ZERO;
            let mut f = rest.split_ascii_whitespace();
            while let Some(w) = f.next() {
                if w == "learned" {
                    learned = f.next().and_then(parse_uptime).unwrap_or(SimDuration::ZERO);
                    break;
                }
            }
            Some((group, source, learned))
        })();
        match entry {
            Some((g, s, ago)) => {
                let first = SimTime(cap.captured_at.as_secs().saturating_sub(ago.as_secs()));
                maps.sa_cache.insert((g, s), first);
                st.parsed += 1;
            }
            None => st.malformed += 1,
        }
    }
    st
}
