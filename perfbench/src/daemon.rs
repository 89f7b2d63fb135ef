//! The `daemon-query` workload: the shipped `mantra daemon` in its own
//! process, collecting the transition world at the shipped tick pause,
//! queried by closed-loop clients.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mantra_core::{ArchiveReader, ArchiveSpec};
use mantra_net::{SimDuration, SimTime};
use serde::Value;

use crate::http::{self, Daemon};
use crate::stats::{as_u64, field, median, summarize, tail_label, Metrics, SplitMix};

/// The query endpoints the clients cycle through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    Health,
    Usage,
    Anomalies,
    Parse,
    Report,
    Replay,
    /// An unknown path: a 404 answered without the engine lock.
    Noop,
}

impl Endpoint {
    /// The workload's request mix, in client order.
    pub const MIX: [Endpoint; 6] = [
        Endpoint::Health,
        Endpoint::Usage,
        Endpoint::Anomalies,
        Endpoint::Parse,
        Endpoint::Report,
        Endpoint::Replay,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Health => "health",
            Endpoint::Usage => "usage",
            Endpoint::Anomalies => "anomalies",
            Endpoint::Parse => "parse",
            Endpoint::Report => "report",
            Endpoint::Replay => "replay",
            Endpoint::Noop => "noop",
        }
    }
}

/// What the clients ask about: a router, the window start and the
/// seeded replay instants.
#[derive(Clone, Debug)]
pub struct Queries {
    pub router: String,
    pub since: SimTime,
    pub replay_at: Vec<SimTime>,
}

/// Replay instants drawn per run.
const REPLAY_INSTANTS: usize = 64;

impl Queries {
    /// Replay instants drawn by `seed` from the first `warm_cycles`
    /// collection intervals after `start`.
    pub fn new(
        router: &str,
        start: SimTime,
        interval: SimDuration,
        warm_cycles: u64,
        seed: u64,
    ) -> Self {
        let span = interval.as_secs() * warm_cycles;
        let mut rng = SplitMix::new(seed);
        let replay_at = (0..REPLAY_INSTANTS)
            .map(|_| SimTime(start.as_secs() + 1 + rng.below(span)))
            .collect();
        Queries {
            router: router.to_string(),
            since: start,
            replay_at,
        }
    }

    fn path(&self, ep: Endpoint, i: usize) -> (String, Option<SimTime>) {
        match ep {
            Endpoint::Health => ("/health".into(), None),
            Endpoint::Usage => (format!("/stats/usage?router={}", self.router), None),
            Endpoint::Anomalies => (format!("/anomalies?since={}", self.since.as_secs()), None),
            Endpoint::Parse => ("/parse".into(), None),
            Endpoint::Report => ("/".into(), None),
            Endpoint::Replay => {
                let at = self.replay_at[i % self.replay_at.len()];
                (
                    format!("/replay?router={}&at={}", self.router, at.as_secs()),
                    Some(at),
                )
            }
            Endpoint::Noop => ("/perfbench-noop".into(), None),
        }
    }
}

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub endpoint: Endpoint,
    /// Seconds since the load started, at send time.
    pub sent: f64,
    pub ms: f64,
    pub ok: bool,
}

/// Everything the clients observed.
#[derive(Debug, Default)]
pub struct Observed {
    pub samples: Vec<Sample>,
    /// `(seconds, cycles)` from every `/health` answer.
    pub cycles: Vec<(f64, u64)>,
    /// Query-cache `(hits, misses)` from the latest `/health` answer.
    pub cache: Option<(u64, u64)>,
    /// Distinct replay answers: instant → (records, lines).
    pub replays: BTreeMap<u64, (u64, Vec<String>)>,
    /// Two answers for one instant that disagreed, or malformed bodies.
    pub problems: Vec<String>,
    /// The usage list of the latest `/stats/usage` answer.
    pub usage: Option<Value>,
}

impl Observed {
    /// Keeps one answer per replay instant; a second, different answer
    /// for the same instant is a problem.
    fn record_replay(&mut self, at: u64, answer: (u64, Vec<String>)) {
        match self.replays.get(&at) {
            Some(seen) if *seen != answer => self
                .problems
                .push(format!("two different /replay answers for at={at}")),
            _ => {
                self.replays.insert(at, answer);
            }
        }
    }
}

/// Checks one answer and harvests what the run needs from it.
fn inspect(
    ep: Endpoint,
    at: Option<SimTime>,
    sent: f64,
    reply: &http::Reply,
    obs: &mut Observed,
) -> bool {
    let expected = if ep == Endpoint::Noop { 404 } else { 200 };
    if reply.status != expected {
        return false;
    }
    if ep == Endpoint::Report {
        let html = reply.body.contains("<html");
        if !html {
            obs.problems.push("/ answered without an HTML page".into());
        }
        return html;
    }
    let Some(body) = crate::json::parse(&reply.body) else {
        obs.problems
            .push(format!("/{} answered a body that is not JSON", ep.label()));
        return false;
    };
    match ep {
        Endpoint::Health => {
            if let Some(c) = as_u64(field(&body, "cycles")) {
                obs.cycles.push((sent, c));
            }
            let cache = field(&body, "query_cache");
            if let (Some(h), Some(m)) = (
                as_u64(cache.and_then(|c| field(c, "hits"))),
                as_u64(cache.and_then(|c| field(c, "misses"))),
            ) {
                obs.cache = Some((h, m));
            }
        }
        Endpoint::Usage => obs.usage = field(&body, "usage").cloned(),
        Endpoint::Replay => {
            let records = as_u64(field(&body, "records"));
            let lines = match field(&body, "lines") {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|l| match l {
                        Value::Str(s) => Some(s.clone()),
                        _ => None,
                    })
                    .collect::<Option<Vec<String>>>(),
                _ => None,
            };
            match (at, records, lines) {
                (Some(at), Some(records), Some(lines)) => {
                    obs.record_replay(at.as_secs(), (records, lines));
                }
                _ => obs
                    .problems
                    .push("/replay answer lacks records or lines".into()),
            }
        }
        _ => {}
    }
    true
}

/// Runs `clients` closed-loop clients for `duration`, each with one
/// connection at a time, cycling through `mix` from its own offset.
pub fn load(
    addr: SocketAddr,
    queries: &Arc<Queries>,
    mix: &[Endpoint],
    clients: usize,
    duration: Duration,
    timeout: Duration,
) -> Observed {
    let start = Instant::now();
    let deadline = start + duration;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let queries = Arc::clone(queries);
            let mix = mix.to_vec();
            std::thread::spawn(move || {
                let mut sent = Vec::new();
                let mut i = c * mix.len() / clients.max(1);
                while Instant::now() < deadline {
                    let ep = mix[i % mix.len()];
                    let (path, at) = queries.path(ep, i / mix.len() + c);
                    let t = Instant::now();
                    let reply = http::get(addr, &path, timeout);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let sample = Sample {
                        endpoint: ep,
                        sent: (t - start).as_secs_f64(),
                        ms,
                        ok: false,
                    };
                    sent.push((sample, at, reply));
                    i += 1;
                }
                sent
            })
        })
        .collect();
    let mut answers: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread panicked"))
        .collect();
    // Bodies are checked after the load, so checking costs the clients
    // no think time; in send order, so "latest" means latest.
    answers.sort_by(|a, b| a.0.sent.total_cmp(&b.0.sent));
    let mut obs = Observed::default();
    for (mut sample, at, reply) in answers {
        sample.ok = reply
            .as_ref()
            .is_ok_and(|r| inspect(sample.endpoint, at, sample.sent, r, &mut obs));
        obs.samples.push(sample);
    }
    obs
}

/// Polls `/health` until the daemon reports `cycles` collected.
pub fn wait_for_cycles(addr: SocketAddr, cycles: u64, limit: Duration) -> Result<u64, String> {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if let Ok(r) = http::get(addr, "/health", Duration::from_secs(5)) {
            if r.status == 200 {
                let body = crate::json::parse(&r.body).ok_or("/health is not JSON")?;
                if let Some(c) = as_u64(field(&body, "cycles")).filter(|&c| c >= cycles) {
                    return Ok(c);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err(format!(
        "daemon did not reach {cycles} cycles within {limit:?}"
    ))
}

/// Progress per second between the first and last observation.
pub fn rate(obs: &[(f64, u64)]) -> Option<f64> {
    let (first, last) = (obs.first()?, obs.last()?);
    let dt = last.0 - first.0;
    (dt > 0.0 && last.1 >= first.1).then(|| (last.1 - first.1) as f64 / dt)
}

/// Checks every distinct `/replay` answer against an offline
/// `ArchiveReader` replay of the same prefix.
pub fn check_replays(archive: &Path, replays: &BTreeMap<u64, (u64, Vec<String>)>) -> Vec<String> {
    let rd = match ArchiveReader::open(archive) {
        Ok(rd) => rd,
        Err(e) => return vec![format!("{}: {e}", archive.display())],
    };
    let mut problems = Vec::new();
    for (at, (records, lines)) in replays {
        let count = rd.records_at_or_before(SimTime(*at));
        match rd.summary_lines(count) {
            Ok(offline) if count as u64 == *records && offline == *lines => {}
            Ok(_) => problems.push(format!("/replay at={at} differs from the offline replay")),
            Err(e) => problems.push(format!("offline replay at={at}: {e}")),
        }
    }
    problems
}

/// Total `.marc` bytes under `dir` for `routers`.
pub fn archive_bytes(dir: &Path, routers: &[String]) -> u64 {
    routers
        .iter()
        .filter_map(|r| std::fs::metadata(ArchiveSpec::path_for(dir, r)).ok())
        .map(|m| m.len())
        .sum()
}

/// Spawns a daemon, waits until `warm` cycles are collected, and
/// returns it with its set-up time in seconds.
pub fn spawn_warm(
    mantra: &Path,
    dir: &Path,
    seed: u64,
    warm: u64,
    extra: &[&str],
) -> Result<(Daemon, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let daemon = Daemon::spawn(mantra, dir, seed, extra)?;
    match wait_for_cycles(daemon.addr, warm, Duration::from_secs(120)) {
        Ok(_) => {
            let setup = daemon.spawned.elapsed().as_secs_f64();
            Ok((daemon, setup))
        }
        Err(e) => {
            daemon.stop();
            Err(e)
        }
    }
}

/// The daemon's archive directory for spawn `i`.
pub fn spawn_dir(out: &Path, i: usize) -> PathBuf {
    out.join(format!("daemon-{i}"))
}

/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// A request unanswered after this long has failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// The starvation probe's deadline and length.
pub const STARVE_DEADLINE: Duration = Duration::from_secs(1);
const STARVE_PROBE: Duration = Duration::from_secs(3);

impl Observed {
    fn latencies(&self, ep: Option<Endpoint>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| ep.is_none_or(|e| s.endpoint == e))
            .map(|s| s.ms)
            .collect()
    }

    /// Requests answered as expected.
    pub fn ok(&self) -> u64 {
        self.samples.iter().filter(|s| s.ok).count() as u64
    }

    /// Seconds from the first send to the last answer.
    pub fn span_s(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.sent + s.ms / 1e3)
            .fold(0.0, f64::max)
            .max(1e-9)
    }

    /// The end-to-end request metrics: `req_ms.p50` over the whole mix,
    /// `req_per_s`, and for the record the tail with its sample count
    /// and the failed share.
    pub fn request_metrics(&self, m: &mut Metrics) {
        let all = summarize(&self.latencies(None));
        m.lower("req_ms.p50", all.as_ref().map_or(0.0, |s| s.p50), "ms");
        m.higher("req_per_s", self.ok() as f64 / self.span_s(), "1/s");
        m.higher(
            "req_ms.n",
            all.as_ref().map_or(0.0, |s| s.n as f64),
            "count",
        );
        if let Some((p, v)) = all.and_then(|s| s.tail) {
            m.lower(format!("req_ms.{}", tail_label(p)), v, "ms");
        }
        let attempted = self.samples.len() as u64;
        m.lower(
            "req_failed_ratio",
            (attempted - self.ok()) as f64 / attempted.max(1) as f64,
            "ratio",
        );
    }

    /// Per-endpoint medians, the `/health` maximum, the tail over the mix
    /// and the query-cache hit ratio.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        for ep in Endpoint::MIX {
            m.lower(
                format!("http.{}_ms.p50", ep.label()),
                median(&self.latencies(Some(ep))),
                "ms",
            );
        }
        let health = summarize(&self.latencies(Some(Endpoint::Health)));
        m.lower("http.health_ms.max", health.map_or(0.0, |s| s.max), "ms");
        let tail = summarize(&self.latencies(None)).and_then(|s| s.tail);
        m.lower("http.req_ms.tail", tail.map_or(0.0, |t| t.1), "ms");
        let ratio = self
            .cache
            .map_or(0.0, |(h, mi)| h as f64 / (h + mi).max(1) as f64);
        m.higher("archive.cache_hit_ratio", ratio, "ratio");
    }
}

/// Median latency of a 404 answered without the engine lock.
pub fn noop_probe(addr: SocketAddr, queries: &Arc<Queries>, m: &mut Metrics) {
    let noop = load(
        addr,
        queries,
        &[Endpoint::Noop],
        CLIENTS,
        Duration::from_millis(500),
        REQUEST_TIMEOUT,
    );
    m.lower("http.noop_ms.p50", median(&noop.latencies(None)), "ms");
}

/// Runs a `--tick-ms 0` daemon briefly and counts `/health` and
/// `/parse` requests not answered within the deadline: the engine lock
/// is not fair, so a tick thread that re-locks at once can starve them.
pub fn starvation_probe(
    mantra: &Path,
    dir: &Path,
    seed: u64,
    queries: &Arc<Queries>,
    m: &mut Metrics,
) -> Result<(), String> {
    let (d, _) = spawn_warm(mantra, dir, seed, 1, &["--tick-ms", "0"])?;
    let obs = load(
        d.addr,
        queries,
        &[Endpoint::Health, Endpoint::Parse],
        CLIENTS,
        STARVE_PROBE,
        STARVE_DEADLINE,
    );
    d.stop();
    let deadline_ms = STARVE_DEADLINE.as_secs_f64() * 1e3;
    let late = obs
        .samples
        .iter()
        .filter(|s| !s.ok || s.ms >= deadline_ms)
        .count();
    m.lower("daemon.starved", late as f64, "count");
    m.higher(
        "daemon.starved_attempted",
        obs.samples.len() as f64,
        "count",
    );
    Ok(())
}
