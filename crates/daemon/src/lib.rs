//! `mantrad` — the always-on monitoring daemon.
//!
//! The paper's Mantra ran as a service: collection on a timer, results
//! queryable at any moment through a web front-end. This crate is that
//! shape for the reproduction. One **tick thread** owns the [`Monitor`],
//! the paper's two routers or a fleet alike (behind a `Mutex` held only
//! for the duration of a cycle), and drives collection at a wall-clock
//! cadence;
//! a **serve thread** accepts HTTP/1.1 connections and answers JSON
//! queries from brief lock grabs — or, for `/replay`, from no lock at
//! all: time-travel replay goes through a read-only
//! [`mantra_core::archive::ArchiveReader`], which snapshots the
//! archive's logical end and replays a consistent prefix while the
//! writer keeps appending, with the reader kept and its results
//! memoised in the monitor's shared
//! [`QueryCache`](mantra_core::archive::QueryCache).
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use mantra_core::anomaly::Anomaly;
use mantra_core::archive::CacheStats;
use mantra_core::logger::TableLog;
use mantra_core::processor::ParseStats;
use mantra_core::{web, Monitor};
use mantra_net::SimTime;

pub mod http;
pub mod json;

use http::{Request, Response};
use json::{jarr, jstr, Obj};

// ----------------------------------------------------------------------
// Engine: the monitor, and which `/` page it serves
// ----------------------------------------------------------------------

/// What the daemon drives: one [`Monitor`]. The variant only picks the
/// `/` page; every other endpoint reads the monitor alike.
pub enum Engine {
    /// `/` reports on one router (`?router=`, else the default router).
    Single(Monitor),
    /// `/` is the fleet-wide report.
    Fleet(Monitor),
}

impl Engine {
    /// The monitor behind either page.
    pub fn monitor(&self) -> &Monitor {
        match self {
            Engine::Single(m) | Engine::Fleet(m) => m,
        }
    }

    /// The monitor behind either page, for the tick that runs its cycles.
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        match self {
            Engine::Single(m) | Engine::Fleet(m) => m,
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

impl Shared {
    /// The engine, locked; a panicked holder leaves it usable.
    fn engine(&self) -> MutexGuard<'_, Engine> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }
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
            let now = tick(&mut shared.engine());
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
    let engine = shared.engine();
    let events = &shared.topology_events;
    let page = match &*engine {
        Engine::Single(m) => {
            let router = req.param("router").unwrap_or(&shared.default_router);
            web::report_html(m, router, events)
        }
        Engine::Fleet(m) => {
            web::fleet_report_html(m, SimTime(shared.now.load(Ordering::SeqCst)), events)
        }
    };
    Response::html(web::live_wrap(&page, shared.refresh_secs))
}

fn health(shared: &Shared) -> Response {
    let engine = shared.engine();
    let m = engine.monitor();
    let now = SimTime(shared.now.load(Ordering::SeqCst));
    let (interval, stale_after) = (m.cfg.interval, m.cfg.stale_after_intervals);
    let rows = m.cfg.routers.iter().filter_map(|router| {
        let h = m.router_health(router)?;
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
                .bool(
                    "archive_degraded",
                    m.log(router).is_some_and(TableLog::degraded),
                )
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
            .u64("cycles", m.cycles())
            .u64("now", now.as_secs())
            .u64("capture_failures", m.capture_failures())
            .usize("anomalies", m.anomalies.len())
            .raw("query_cache", cache_json(m.query_cache().stats()))
            .raw("topology_events", jarr(events))
            .raw("routers", jarr(rows))
            .finish(),
    )
}

fn usage(shared: &Shared, req: &Request) -> Response {
    let engine = shared.engine();
    let m = engine.monitor();
    let Some(router) = req.param("router") else {
        return Response::error(400, "missing required query parameter 'router'");
    };
    if m.monitor_of(router).is_none() {
        return Response::error(404, &format!("unknown router {router:?}"));
    }
    // A retired router's history is a frozen prefix, not live data —
    // say so instead of serving it unlabeled.
    let state = m
        .lifecycle_of(router)
        .map(|l| l.label())
        .unwrap_or_else(|| "unknown".into());
    let retired = state == "retired";
    let history = m.usage_history(router);
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
    let engine = shared.engine();
    let picked: Vec<&Anomaly> = (engine.monitor().anomalies.iter())
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
    let engine = shared.engine();
    let m = engine.monitor();
    Response::json(
        Obj::new()
            .bool("degraded", m.parse_degraded())
            .raw("totals", parse_stats_json(m.parse_totals()))
            .raw("last", parse_stats_json(m.parse_last()))
            .finish(),
    )
}

/// Time-travel replay. Takes the engine lock only long enough to resolve
/// the archive path and cache handle; the replay itself runs lock-free
/// through [`mantra_core::archive::QueryCache::replay_lines`] so a slow
/// archive scan never stalls collection or other queries.
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
        let engine = shared.engine();
        let m = engine.monitor();
        let path = m.monitor_of(&router).and_then(|m| m.archive_path(&router));
        path.map(|path| (path, m.query_cache()))
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
