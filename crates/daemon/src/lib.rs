//! `mantrad` — the always-on monitoring daemon.
//!
//! The paper's Mantra ran as a service: collection on a timer, results
//! queryable at any moment through a web front-end. This crate is that
//! shape for the reproduction. One **tick thread** owns the
//! [`Monitor`]/[`FleetMonitor`] (behind a `Mutex` held only for the
//! duration of a cycle) and drives collection at a wall-clock cadence;
//! a **serve thread** accepts HTTP/1.1 connections and answers JSON
//! queries from brief lock grabs — or, for `/replay`, from no lock at
//! all: time-travel replay goes through a read-only
//! [`mantra_core::archive::ArchiveReader`], which snapshots the
//! archive's logical end and replays a consistent prefix while the
//! writer keeps appending, with the reader kept and its results
//! memoised in the monitor's shared [`QueryCache`].
//!
//! Endpoints:
//!
//! | path                    | answer                                       |
//! |-------------------------|----------------------------------------------|
//! | `/`                     | auto-refreshing live HTML report             |
//! | `/health`               | cycles, per-router health, cache counters    |
//! | `/stats/usage?router=`  | usage-statistics history (JSON)              |
//! | `/anomalies?since=`     | anomalies at or after `since`                |
//! | `/parse`                | cumulative + last-cycle parse accounting     |
//! | `/replay?router=&at=`   | archive replay summary lines up to `at`      |
//!
//! `at=` and `since=` accept raw Unix seconds or `YYYY-MM-DD[THH:MM:SS]`
//! ([`SimTime::parse`]). Shutdown is cooperative: SIGTERM/SIGINT set a
//! flag ([`install_signal_handlers`]), both threads notice within ~100 ms
//! and exit cleanly.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use mantra_core::anomaly::Anomaly;
use mantra_core::archive::{CacheStats, QueryCache};
use mantra_core::monitor::RouterHealth;
use mantra_core::processor::ParseStats;
use mantra_core::stats::UsageStats;
use mantra_core::{FleetMonitor, Monitor, MonitorConfig};
use mantra_net::SimTime;

pub mod http;
pub mod json;

use http::{Request, Response};
use json::{jarr, jstr, Obj};

// ----------------------------------------------------------------------
// Engine: one monitor or a sharded fleet behind one query surface
// ----------------------------------------------------------------------

/// What the daemon drives: a single [`Monitor`] or a sharded
/// [`FleetMonitor`], presented to the endpoints as one surface.
// The variants differ in size by a couple of KB, but the daemon owns
// exactly one `Engine` for its whole lifetime — boxing would buy
// nothing and cost an indirection on every query.
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    Single(Monitor),
    Fleet(FleetMonitor),
}

impl Engine {
    pub fn cfg(&self) -> &MonitorConfig {
        match self {
            Engine::Single(m) => &m.cfg,
            Engine::Fleet(f) => &f.cfg,
        }
    }

    pub fn cycles(&self) -> u64 {
        match self {
            Engine::Single(m) => m.cycles(),
            Engine::Fleet(f) => f.cycles(),
        }
    }

    pub fn capture_failures(&self) -> u64 {
        match self {
            Engine::Single(m) => m.capture_failures(),
            Engine::Fleet(f) => f.capture_failures(),
        }
    }

    pub fn anomalies(&self) -> &[Anomaly] {
        match self {
            Engine::Single(m) => &m.anomalies,
            Engine::Fleet(f) => &f.anomalies,
        }
    }

    pub fn parse_totals(&self) -> ParseStats {
        match self {
            Engine::Single(m) => m.parse_totals,
            Engine::Fleet(f) => f.parse_totals(),
        }
    }

    pub fn parse_last(&self) -> ParseStats {
        match self {
            Engine::Single(m) => m.parse_last,
            Engine::Fleet(f) => f.parse_last(),
        }
    }

    pub fn parse_degraded(&self) -> bool {
        match self {
            Engine::Single(m) => m.parse_degraded(),
            Engine::Fleet(f) => f.parse_degraded(),
        }
    }

    /// The monitor responsible for `router` (the shard, in fleet mode),
    /// or `None` when no monitor watches a router by that name — the
    /// 404 the query endpoints lean on.
    pub fn monitor_of(&self, router: &str) -> Option<&Monitor> {
        match self {
            Engine::Single(m) => m.cfg.routers.iter().any(|r| r == router).then_some(m),
            Engine::Fleet(f) => f.monitor_of(router),
        }
    }

    pub fn router_health(&self, router: &str) -> Option<&RouterHealth> {
        self.monitor_of(router)?.router_health(router)
    }

    pub fn usage_history(&self, router: &str) -> &[UsageStats] {
        self.monitor_of(router)
            .map(|m| m.usage_history(router))
            .unwrap_or(&[])
    }

    /// Query-cache counters summed across all owned caches.
    pub fn cache_stats(&self) -> CacheStats {
        match self {
            Engine::Single(m) => m.query_cache().stats(),
            Engine::Fleet(f) => f.query_cache_stats(),
        }
    }

    /// `router`'s on-disk archive path and the query cache that memoises
    /// replays over it — everything `/replay` needs, so the handler can
    /// drop the engine lock before touching the archive.
    pub fn replay_source(&self, router: &str) -> Option<(PathBuf, Arc<QueryCache>)> {
        let m = self.monitor_of(router)?;
        Some((m.archive_path(router)?, m.query_cache()))
    }

    /// The lifecycle state of one router
    /// (active / stale(n) / retired), judged by its owning monitor.
    pub fn lifecycle_of(&self, router: &str) -> Option<mantra_core::LifecycleState> {
        self.monitor_of(router)?.lifecycle_of(router)
    }

    /// The live HTML report (single-router page, or the fleet page),
    /// with the topology-events strip rendered from `events`.
    pub fn report_html(
        &self,
        router: &str,
        now: SimTime,
        refresh_secs: u64,
        events: &[(SimTime, String)],
    ) -> String {
        match self {
            Engine::Single(m) => mantra_core::web::live_wrap(
                &mantra_core::web::report_html(m, router, events),
                refresh_secs,
            ),
            Engine::Fleet(f) => mantra_core::web::live_wrap(
                &mantra_core::web::fleet_report_html(f, now, events),
                refresh_secs,
            ),
        }
    }
}

// ----------------------------------------------------------------------
// Configuration and lifecycle
// ----------------------------------------------------------------------

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks an ephemeral port (reported by
    /// [`DaemonHandle::addr`]).
    pub addr: String,
    /// Default router for the `/` report page.
    pub router: String,
    /// Live-report poll cadence in seconds.
    pub refresh_secs: u64,
    /// Wall-clock pause between collection cycles.
    pub tick: Duration,
    /// Stop *collecting* after this many cycles (`None` = forever); the
    /// query surface keeps serving either way. CI uses this to diff a
    /// quiescent archive against the offline replay.
    pub max_cycles: Option<u64>,
    /// The scenario's churn timeline (`(event time, label)`), shown on
    /// `/health` (filtered to events at or before the latest cycle) and
    /// as the report page's topology-events strip. Empty for a static
    /// world.
    pub topology_events: Vec<(SimTime, String)>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:4617".into(),
            router: "fixw".into(),
            refresh_secs: 2,
            tick: Duration::from_millis(250),
            max_cycles: None,
            topology_events: Vec::new(),
        }
    }
}

struct Shared {
    engine: Mutex<Engine>,
    /// Latest cycle timestamp (SimTime seconds); endpoints judge
    /// staleness and render the fleet report against this.
    now: AtomicU64,
    shutdown: AtomicBool,
    default_router: String,
    refresh_secs: u64,
    /// Full churn timeline for the run; endpoints filter by `now`.
    topology_events: Vec<(SimTime, String)>,
}

/// A running daemon: the bound address plus the two thread handles.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    serve: thread::JoinHandle<()>,
    tick: thread::JoinHandle<()>,
}

impl DaemonHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without waiting.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Requests shutdown and joins both threads.
    pub fn stop(self) {
        self.request_shutdown();
        let _ = self.tick.join();
        let _ = self.serve.join();
    }
}

/// How often the accept loop and the tick thread re-check the shutdown
/// flag while otherwise idle.
const POLL: Duration = Duration::from_millis(50);

/// Starts the daemon: binds `cfg.addr`, spawns the tick and serve
/// threads, returns immediately. `tick` advances the simulation (or
/// whatever feeds the engine) by one collection cycle and returns the
/// new current time; it runs under the engine lock.
pub fn spawn<F>(cfg: DaemonConfig, engine: Engine, tick: F) -> io::Result<DaemonHandle>
where
    F: FnMut(&mut Engine) -> SimTime + Send + 'static,
{
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        engine: Mutex::new(engine),
        now: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        default_router: cfg.router.clone(),
        refresh_secs: cfg.refresh_secs,
        topology_events: cfg.topology_events.clone(),
    });

    let tick_shared = Arc::clone(&shared);
    let tick_pause = cfg.tick;
    let max_cycles = cfg.max_cycles;
    let tick_handle = thread::Builder::new()
        .name("mantrad-tick".into())
        .spawn(move || run_ticks(&tick_shared, tick, tick_pause, max_cycles))?;

    let serve_shared = Arc::clone(&shared);
    let serve_handle = thread::Builder::new()
        .name("mantrad-serve".into())
        .spawn(move || run_accept_loop(&serve_shared, listener))?;

    Ok(DaemonHandle {
        addr,
        shared,
        serve: serve_handle,
        tick: tick_handle,
    })
}

fn run_ticks<F>(shared: &Shared, mut tick: F, pause: Duration, max_cycles: Option<u64>)
where
    F: FnMut(&mut Engine) -> SimTime,
{
    let mut done = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        if max_cycles.is_none_or(|max| done < max) {
            let now = {
                let mut engine = shared.engine.lock().unwrap_or_else(|e| e.into_inner());
                tick(&mut engine)
            };
            shared.now.store(now.as_secs(), Ordering::SeqCst);
            done += 1;
        }
        // Sleep in short slices so SIGTERM lands within ~POLL.
        let mut left = pause;
        while left > Duration::ZERO && !shared.shutdown.load(Ordering::SeqCst) {
            let step = left.min(POLL);
            thread::sleep(step);
            left = left.saturating_sub(step);
        }
    }
}

fn run_accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let _ = thread::Builder::new()
                    .name("mantrad-conn".into())
                    .spawn(move || handle_connection(&shared, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let resp = match http::read_request(&mut stream) {
        Ok(req) => route(shared, &req),
        Err(e) if e.kind() == io::ErrorKind::Unsupported => Response::error(405, &e.to_string()),
        Err(e) => Response::error(400, &e.to_string()),
    };
    let _ = http::write_response(&mut stream, &resp);
}

// ----------------------------------------------------------------------
// Endpoints
// ----------------------------------------------------------------------

fn route(shared: &Shared, req: &Request) -> Response {
    match req.path.as_str() {
        "/" | "/report" => report(shared, req),
        "/health" => health(shared),
        "/stats/usage" => usage(shared, req),
        "/anomalies" => anomalies(shared, req),
        "/parse" => parse(shared),
        "/replay" => replay(shared, req),
        other => Response::error(404, &format!("no such endpoint {other:?}")),
    }
}

fn cache_json(c: CacheStats) -> String {
    Obj::new()
        .u64("hits", c.hits)
        .u64("misses", c.misses)
        .u64("evictions", c.evictions)
        .u64("entries", c.entries)
        .finish()
}

fn parse_stats_json(p: ParseStats) -> String {
    Obj::new()
        .usize("parsed", p.parsed)
        .usize("malformed", p.malformed)
        .usize("skipped", p.skipped)
        .usize("rejected_mixed", p.rejected_mixed)
        .finish()
}

fn report(shared: &Shared, req: &Request) -> Response {
    let engine = shared.engine.lock().unwrap_or_else(|e| e.into_inner());
    let router = req.param("router").unwrap_or(&shared.default_router);
    let now = SimTime(shared.now.load(Ordering::SeqCst));
    Response::html(engine.report_html(router, now, shared.refresh_secs, &shared.topology_events))
}

fn health(shared: &Shared) -> Response {
    let engine = shared.engine.lock().unwrap_or_else(|e| e.into_inner());
    let now = SimTime(shared.now.load(Ordering::SeqCst));
    let cfg = engine.cfg();
    let (interval, stale_after) = (cfg.interval, cfg.stale_after_intervals);
    let rows = cfg.routers.iter().filter_map(|router| {
        let h = engine.router_health(router)?;
        let state = h.lifecycle(stale_after).label();
        Some(
            Obj::new()
                .str("router", router)
                .u64("ok", h.successes)
                .u64("failed", h.failures)
                .u64("retries", h.retries)
                .u64("recovered", h.retry_successes)
                .u64("salvaged", h.salvaged)
                .u64("raw_bytes", h.raw_bytes)
                .opt("last_success", h.last_success, |t| t.as_secs().to_string())
                .bool("stale", h.is_stale(now, interval, stale_after))
                .str("state", &state)
                .u64("missed_cycles", h.missed_cycles)
                .u64("rejoins", h.rejoins)
                .bool("archive_degraded", h.archive_degraded)
                .finish(),
        )
    });
    let rows: Vec<String> = rows.collect();
    // Topology events that have already happened, oldest first. The
    // timeline is known up front (the schedule is deterministic); only
    // the `now` cut varies as cycles land.
    let events: Vec<String> = shared
        .topology_events
        .iter()
        .filter(|(at, _)| at.as_secs() <= now.as_secs())
        .map(|(at, label)| {
            Obj::new()
                .u64("at", at.as_secs())
                .str("event", label)
                .finish()
        })
        .collect();
    Response::json(
        Obj::new()
            .u64("cycles", engine.cycles())
            .u64("now", now.as_secs())
            .u64("capture_failures", engine.capture_failures())
            .usize("anomalies", engine.anomalies().len())
            .raw("query_cache", cache_json(engine.cache_stats()))
            .raw("topology_events", jarr(events))
            .raw("routers", jarr(rows))
            .finish(),
    )
}

fn usage(shared: &Shared, req: &Request) -> Response {
    let engine = shared.engine.lock().unwrap_or_else(|e| e.into_inner());
    let Some(router) = req.param("router") else {
        return Response::error(400, "missing required query parameter 'router'");
    };
    if engine.monitor_of(router).is_none() {
        return Response::error(404, &format!("unknown router {router:?}"));
    }
    // A retired router's history is a frozen prefix, not live data —
    // say so instead of serving it unlabeled.
    let state = engine
        .lifecycle_of(router)
        .map(|l| l.label())
        .unwrap_or_else(|| "unknown".into());
    let retired = state == "retired";
    let history = engine.usage_history(router);
    let payload = match serde_json::to_string(history) {
        Ok(p) => p,
        Err(e) => return Response::error(500, &e.to_string()),
    };
    let mut obj = Obj::new()
        .str("router", router)
        .str("state", &state)
        .bool("retired", retired)
        .usize("cycles", history.len());
    if retired {
        obj = obj.str(
            "note",
            "router is retired; history is the archived prefix up to its last successful cycle",
        );
    }
    Response::json(obj.raw("usage", payload).finish())
}

fn anomalies(shared: &Shared, req: &Request) -> Response {
    let since = match req.param("since").map(SimTime::parse).transpose() {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("since={e}")),
    };
    let engine = shared.engine.lock().unwrap_or_else(|e| e.into_inner());
    let picked: Vec<&Anomaly> = engine
        .anomalies()
        .iter()
        .filter(|a| since.is_none_or(|s| a.at >= s))
        .collect();
    let payload = match serde_json::to_string(&picked) {
        Ok(p) => p,
        Err(e) => return Response::error(500, &e.to_string()),
    };
    Response::json(
        Obj::new()
            .opt("since", since, |s| s.as_secs().to_string())
            .raw("anomalies", payload)
            .finish(),
    )
}

fn parse(shared: &Shared) -> Response {
    let engine = shared.engine.lock().unwrap_or_else(|e| e.into_inner());
    Response::json(
        Obj::new()
            .bool("degraded", engine.parse_degraded())
            .raw("totals", parse_stats_json(engine.parse_totals()))
            .raw("last", parse_stats_json(engine.parse_last()))
            .finish(),
    )
}

/// Time-travel replay. Takes the engine lock only long enough to resolve
/// the archive path and cache handle; the replay itself runs lock-free
/// through [`QueryCache::replay_lines`] so a slow archive scan never
/// stalls collection or other queries.
fn replay(shared: &Shared, req: &Request) -> Response {
    let Some(router) = req.param("router") else {
        return Response::error(400, "missing required query parameter 'router'");
    };
    let router = router.to_string();
    let at = match req.param("at").map(SimTime::parse).transpose() {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("at={e}")),
    };
    let source = {
        let engine = shared.engine.lock().unwrap_or_else(|e| e.into_inner());
        engine.replay_source(&router)
    };
    let Some((path, cache)) = source else {
        return Response::error(
            404,
            &format!("router {router:?} has no on-disk archive to replay"),
        );
    };
    let (count, lines) = match cache.replay_lines(&path, at) {
        Ok(r) => r,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Response::error(404, &format!("archive not written yet: {e}"))
        }
        Err(e) => return Response::error(500, &e.to_string()),
    };
    Response::json(
        Obj::new()
            .str("router", &router)
            .opt("at", at, |t| t.as_secs().to_string())
            .usize("records", count)
            .usize("snapshots", lines.len())
            .raw("cache", cache_json(cache.stats()))
            .raw("lines", jarr(lines.iter().map(|l| jstr(l))))
            .finish(),
    )
}

// ----------------------------------------------------------------------
// Signals
// ----------------------------------------------------------------------

static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that set a process-wide flag
/// ([`shutdown_requested`]). Raw `signal(2)` through FFI — the daemon
/// only ever sets one atomic from the handler, which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Whether a termination signal has arrived since
/// [`install_signal_handlers`].
pub fn shutdown_requested() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}
