//! The subcommand implementations. Each writes its stdout through the
//! writer `main` hands it.

use std::error::Error;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use mantra_core::archive::replay_summary_line;
use mantra_core::collector::FlakyAccess;
use mantra_core::logger::{compact_archive, CompactOptions, TableLog};
use mantra_core::{
    ArchiveSpec, BackpressureMode, Monitor, MonitorConfig, RetryPolicy, SyncPolicy, WriterConfig,
};
use mantra_daemon::Engine;
use mantra_net::{SimDuration, SimTime};
use mantra_sim::{ChurnProfile, ChurnSchedule, Scenario};

use crate::args::Opts;

/// Top-level usage text.
pub const USAGE: &str = "\
mantra — router-based multicast monitoring (simulated 1998-2000 internetwork)

USAGE:
  mantra monitor  [--seed N] [--native F] [--hours H] [--loss P] [--html FILE]
                  [--archive-dir DIR] [--fsync-every N] [--fsync-bytes B]
                  [--archive-writer sync|block|shed] [--archive-queue N]
                  [--fleet R] [--table-rows N] [--churn calm|flappy|partition]
  mantra health   [--seed N] [--native F] [--hours H] [--fail P] [--truncate P]
                  [--retries N]
  mantra daemon   [--addr HOST:PORT] [--seed N] [--native F] [--loss P]
                  [--archive-dir DIR] [--cycles N] [--tick-ms MS] [--refresh S]
                  [--fleet R] [--table-rows N] [--churn P]
                  [archive writer flags as monitor]
  mantra incident [--seed N]
  mantra archive  info    --path FILE
  mantra archive  replay  --path FILE
  mantra archive  compact --path FILE --out FILE [--full-every N]
                  [--drop-before TS]
  mantra mwatch   [--seed N] [--native F]
  mantra mtrace   [--seed N] [--native F]
  mantra snmpwalk [--seed N] [--native F] [--oid OID] [--community STR]

OPTIONS:
  --seed N        scenario seed (default 1998)
  --native F      fraction of domains already native sparse-mode (default 0.4)
  --hours H       hours of simulated monitoring (default 12)
  --loss P        DVMRP report loss probability (default 0.02)
  --html FILE     also write an HTML report
  --archive-dir DIR  persist per-router table logs as .marc archives in DIR
  --fsync-every N batch fsync: sync after every N appends (0 = checkpoints only)
  --fsync-bytes B batch fsync: sync after B unsynced bytes (0 = checkpoints only)
  --archive-writer M  archive I/O mode: sync (default, writes on the collection
                  path), block (writer thread, full queue blocks), or shed
                  (writer thread, full queue drops the record — loudly)
  --archive-queue N  writer-thread queue capacity in records (default 64)
  --fleet R       fleet mode: monitor a fleet-scale scenario of ~R routers
                  (all of them)
  --table-rows N  per-router health and archive tables degrade to the worst N
                  rows + a totals footer (default 64)
  --churn P       churn the topology mid-run: routers join/leave, links flap,
                  domains partition and heal. P is calm, flappy or partition;
                  the schedule is deterministic in (P, --seed). Prints the
                  topology-event strip and the per-router health table with
                  lifecycle states (active / stale(n) / retired)
  --path FILE     archive to inspect (.marc)
  --out FILE      destination archive for `archive compact`
  --full-every N  full-snapshot checkpoint cadence when rewriting (default 96)
  --drop-before TS  compaction: drop snapshots captured before TS — either raw
                  Unix seconds or ISO `YYYY-MM-DD[THH:MM:SS]`
  --addr HOST:PORT  daemon bind address (default 127.0.0.1:4617; port 0 picks
                  an ephemeral port, printed on startup)
  --cycles N      daemon: stop collecting after N cycles but keep serving
                  queries (default 0 = collect forever)
  --tick-ms MS    daemon: wall-clock pause between collection cycles
                  (default 250)
  --refresh S     daemon: live-report auto-refresh cadence in seconds
                  (default 2)
  --fail P        injected login-failure probability (default 0.2)
  --truncate P    injected truncation probability (default 0.1)
  --retries N     capture attempts per table per cycle (default 3)
  --oid OID       subtree to walk (default 1.3.6.1.2.1)
  --community STR SNMP community (default public)";

/// What a command returns. An [`io::Error`] in it is a failed write to
/// stdout (every other I/O error is turned into a message first); any
/// other error is the command's own.
pub type Outcome = Result<(), Box<dyn Error>>;

/// The flags each (sub)command accepts; anything else is rejected before
/// the command runs, so a mistyped flag (`monitor --flet 50`) cannot
/// silently run without it. Errors on an unknown command or archive
/// subcommand.
pub fn flags(cmd: &str, sub: Option<&str>) -> Result<&'static [&'static str], String> {
    Ok(match (cmd, sub) {
        ("monitor", _) => &[
            "seed",
            "native",
            "hours",
            "loss",
            "html",
            "archive-dir",
            "fsync-every",
            "fsync-bytes",
            "archive-writer",
            "archive-queue",
            "fleet",
            "table-rows",
            "churn",
        ],
        ("health", _) => &[
            "seed", "native", "loss", "hours", "fail", "truncate", "retries",
        ],
        ("daemon", _) => &[
            "addr",
            "seed",
            "native",
            "loss",
            "archive-dir",
            "cycles",
            "tick-ms",
            "refresh",
            "fleet",
            "table-rows",
            "churn",
            "fsync-every",
            "fsync-bytes",
            "archive-writer",
            "archive-queue",
        ],
        ("incident", _) => &["seed"],
        ("archive", Some("info" | "replay")) => &["path"],
        ("archive", Some("compact")) => &["path", "out", "full-every", "drop-before"],
        ("archive", Some(other)) => {
            return Err(format!(
                "unknown archive subcommand '{other}' (expected info, replay or compact)"
            ))
        }
        ("mwatch" | "mtrace", _) => &["seed", "native", "loss"],
        ("snmpwalk", _) => &["seed", "native", "loss", "oid", "community"],
        ("help" | "--help" | "-h", _) => &[],
        (other, _) => return Err(format!("unknown command '{other}'")),
    })
}

/// `--seed`, `--native` and `--loss`, validated.
fn world_flags(opts: &Opts) -> Result<(u64, f64, f64), String> {
    let seed = opts.u64_or("seed", 1998)?;
    let native = opts.f64_or("native", 0.4)?;
    if !(0.0..=1.0).contains(&native) {
        return Err("--native must be in [0,1]".into());
    }
    let loss = opts.f64_or("loss", 0.02)?;
    if !(0.0..=1.0).contains(&loss) {
        return Err("--loss must be in [0,1]".into());
    }
    Ok((seed, native, loss))
}

fn scenario(opts: &Opts) -> Result<Scenario, String> {
    let (seed, native, loss) = world_flags(opts)?;
    let mut sc = Scenario::transition_snapshot(seed, native);
    sc.sim.set_report_loss(loss);
    Ok(sc)
}

fn warmed(opts: &Opts, hours: u64) -> Result<Scenario, String> {
    let mut sc = scenario(opts)?;
    let until = sc.sim.clock + SimDuration::hours(hours);
    sc.sim.advance_to(until);
    Ok(sc)
}

/// Resolves `--churn <profile>` into a schedule installed on the
/// scenario, or `None` when the flag is absent. Deterministic in
/// `(profile, --seed)` — two runs with the same flags replay the same
/// topology history.
fn churn_schedule(opts: &Opts, sc: &mut Scenario) -> Result<Option<ChurnSchedule>, String> {
    let Some(name) = opts.get("churn") else {
        return Ok(None);
    };
    let profile = ChurnProfile::parse(name)
        .ok_or_else(|| format!("--churn '{name}': expected calm, flappy or partition"))?;
    let seed = opts.u64_or("seed", 1998)?;
    let schedule = sc.with_churn(profile, seed);
    eprintln!(
        "churn profile '{}' (seed {seed}): {} topology event(s) scheduled",
        profile.name(),
        schedule.len(),
    );
    Ok(Some(schedule))
}

/// Prints the topology-event strip for a churned run.
fn print_event_strip(out: &mut dyn Write, schedule: &ChurnSchedule) -> io::Result<()> {
    writeln!(out, "topology events:")?;
    for (at, label) in schedule.strip(None) {
        writeln!(out, "  {}  {label}", at.iso8601())?;
    }
    Ok(())
}

/// Resolves the archive flags shared by `monitor` and `daemon` into an
/// [`ArchiveSpec`] (plus the directory, when on disk).
fn archive_spec(opts: &Opts) -> Result<(ArchiveSpec, Option<PathBuf>), String> {
    let archive_dir = opts.get("archive-dir").map(PathBuf::from);
    // Validated whether or not --archive-dir is given: a typo'd mode must
    // error, not silently monitor without the writer the user asked for.
    let writer_mode = match opts.get("archive-writer").unwrap_or("sync") {
        "sync" => None,
        "block" => Some(BackpressureMode::Block),
        "shed" => Some(BackpressureMode::Shed),
        other => {
            return Err(format!(
                "--archive-writer '{other}': expected sync, block or shed"
            ))
        }
    };
    let capacity = opts.u64_or("archive-queue", 64)?.max(1) as usize;
    let archive = match &archive_dir {
        Some(dir) => {
            let sync = SyncPolicy {
                on_checkpoint: true,
                every_records: opts.u64_or("fsync-every", 0)? as usize,
                every_bytes: opts.u64_or("fsync-bytes", 0)?,
            };
            match writer_mode {
                None => ArchiveSpec::File {
                    dir: dir.clone(),
                    sync,
                },
                Some(mode) => ArchiveSpec::Threaded {
                    dir: dir.clone(),
                    sync,
                    writer: WriterConfig { capacity, mode },
                },
            }
        }
        None => ArchiveSpec::Memory,
    };
    Ok((archive, archive_dir))
}

/// The world `monitor` and `daemon` watch, and the engine watching it.
struct World {
    sc: Scenario,
    churn: Option<ChurnSchedule>,
    monitor: Monitor,
    /// Whether `--fleet` asked for the fleet-scale world.
    fleet: bool,
}

/// Builds the world and its engine for `monitor` and `daemon` alike, so
/// both check the same flags with the same messages: the two-router
/// transition snapshot, or with `--fleet R` a fleet-scale scenario of ~R
/// routers, every one monitored.
fn world(opts: &Opts, archive: ArchiveSpec) -> Result<World, String> {
    let fleet = opts.get("fleet").is_some();
    let (seed, native, loss) = world_flags(opts)?;
    let mut cfg = MonitorConfig {
        archive,
        table_detail_limit: opts.u64_or("table-rows", 64)?.max(1) as usize,
        ..MonitorConfig::default()
    };
    let mut sc = if fleet {
        let target = opts.u64_or("fleet", 50)? as usize;
        if target < 3 {
            return Err("--fleet must be at least 3 routers".into());
        }
        let sc = Scenario::fleet_snapshot(seed, target, native);
        let topo = &sc.sim.net.topo;
        cfg.routers = (sc.sim.monitored.iter())
            .map(|id| topo.router(*id).name.clone())
            .collect();
        sc
    } else {
        Scenario::transition_snapshot(seed, native)
    };
    sc.sim.set_report_loss(loss);
    let churn = churn_schedule(opts, &mut sc)?;
    cfg.interval = sc.sim.tick();
    let monitor = Monitor::new(cfg, 1);
    Ok(World {
        sc,
        churn,
        monitor,
        fleet,
    })
}

/// Advances the world one collection interval and runs the engine's
/// cycle there; returns the cycle's time.
fn tick(sc: &mut Scenario, monitor: &mut Monitor) -> SimTime {
    let next = sc.sim.clock + monitor.cfg.interval;
    sc.sim.advance_to(next);
    monitor.run_cycle(&sc.sim, next);
    next
}

/// `mantra monitor`: run the full pipeline and print Mantra's output.
/// Nothing printed to stdout depends on the cycle's fan-out width — the
/// fleet-smoke CI job diffs a run pinned to one CPU against an unpinned
/// one and expects no output difference.
pub fn monitor(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let hours = opts.u64_or("hours", 12)?;
    let (archive, archive_dir) = archive_spec(opts)?;
    let World {
        mut sc,
        churn,
        mut monitor,
        fleet,
    } = world(opts, archive)?;
    let cycles = hours * 3_600 / monitor.cfg.interval.as_secs();
    if fleet {
        eprintln!(
            "monitoring {} routers, {hours}h of simulated time ({cycles} cycles)...",
            monitor.cfg.routers.len(),
        );
    } else {
        eprintln!("monitoring {hours}h of simulated time ({cycles} cycles)...");
    }
    let mut now = sc.sim.clock;
    for _ in 0..cycles {
        now = tick(&mut sc, &mut monitor);
    }
    // Collection is over: every archive writer lands its queue first, so
    // the Archives table reads what is on disk (`TableLog::len` is a
    // drain barrier).
    for log in monitor.cfg.routers.iter().filter_map(|r| monitor.log(r)) {
        log.len();
    }
    let printed = if fleet {
        print_fleet(out, &monitor, now, churn.as_ref(), archive_dir.as_deref())
    } else {
        print_single(out, &monitor, now, churn.as_ref(), archive_dir.as_deref())
    };
    // The report file is written even when stdout went away early.
    if let Some(path) = opts.get("html") {
        let events = churn.as_ref().map(|s| s.strip(None)).unwrap_or_default();
        let page = if fleet {
            mantra_core::web::fleet_report_html(&monitor, now, &events)
        } else {
            mantra_core::web::report_html(&monitor, "fixw", &events)
        };
        std::fs::write(path, page).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(printed?)
}

/// `monitor`'s report on the two-router world.
fn print_single(
    out: &mut dyn Write,
    monitor: &Monitor,
    now: SimTime,
    churn: Option<&ChurnSchedule>,
    archive_dir: Option<&Path>,
) -> io::Result<()> {
    for router in &monitor.cfg.routers {
        let Some(u) = monitor.usage_history(router).last() else {
            continue;
        };
        let r = monitor.route_history(router).last().expect("same cycles");
        writeln!(
            out,
            "{router}: {} sessions ({} active), {} participants ({} senders), {}, {} DVMRP routes",
            u.sessions,
            u.active_sessions,
            u.participants,
            u.senders,
            u.total_bandwidth,
            r.dvmrp_reachable,
        )?;
    }
    writeln!(out, "\n{}", monitor.busiest_sessions("fixw", 8).render())?;
    writeln!(out, "{}", monitor.usage_graph("fixw").render(96, 14))?;
    if !monitor.anomalies.is_empty() {
        writeln!(
            out,
            "{} anomaly(ies) detected; first: {:?}",
            monitor.anomalies.len(),
            monitor.anomalies[0]
        )?;
    }
    if let Some(schedule) = churn {
        // A churned run surfaces the lifecycle column — routers that
        // left are stale(n) or retired, not silently absent.
        writeln!(out, "\n{}", monitor.health(now).render())?;
        print_event_strip(out, schedule)?;
    }
    if let Some(dir) = archive_dir {
        writeln!(out, "\n{}", monitor.archive_table().render())?;
        eprintln!("archives written under {}", dir.display());
    }
    Ok(())
}

/// `monitor --fleet`'s report: fleet-wide figures, and the per-router
/// tables under their fleet titles.
fn print_fleet(
    out: &mut dyn Write,
    monitor: &Monitor,
    now: SimTime,
    churn: Option<&ChurnSchedule>,
    archive_dir: Option<&Path>,
) -> io::Result<()> {
    let usage = monitor.fleet_usage_history().last();
    if let (Some(u), Some(r)) = (usage, monitor.fleet_route_history().last()) {
        writeln!(
            out,
            "fleet: {} sessions ({} active), {} participants ({} senders), {}, {} DVMRP routes",
            u.sessions,
            u.active_sessions,
            u.participants,
            u.senders,
            u.total_bandwidth,
            r.dvmrp_reachable,
        )?;
    }
    writeln!(out, "{} anomaly(ies) fleet-wide", monitor.anomalies.len())?;
    let mut health = monitor.health(now);
    health.title = "Fleet collection health".into();
    writeln!(out, "\n{}", health.render())?;
    if let Some(schedule) = churn {
        print_event_strip(out, schedule)?;
    }
    if let Some(dir) = archive_dir {
        let mut archives = monitor.archive_table();
        archives.title = "Fleet archives".into();
        writeln!(out, "{}", archives.render())?;
        eprintln!("archives written under {}", dir.display());
    }
    writeln!(out, "{}", monitor.fleet_usage_graph().render(96, 14))?;
    Ok(())
}

/// `mantra daemon`: run mantrad — collection on a tick thread, concurrent
/// HTTP/1.1 + JSON queries (health, usage, anomalies, parse accounting,
/// time-travel archive replay) until SIGTERM/SIGINT.
pub fn daemon(opts: &Opts) -> Outcome {
    use std::time::Duration;

    let (archive, archive_dir) = archive_spec(opts)?;
    let addr = opts.get("addr").unwrap_or("127.0.0.1:4617").to_string();
    let cycles = opts.u64_or("cycles", 0)?;
    let refresh_secs = opts.u64_or("refresh", 2)?.max(1);
    let pause = Duration::from_millis(opts.u64_or("tick-ms", 250)?);
    let World {
        mut sc,
        churn,
        monitor,
        fleet,
    } = world(opts, archive)?;
    if archive_dir.is_none() {
        eprintln!("note: archives are in-memory (no --archive-dir); /replay has nothing to serve");
    }
    let cfg = mantra_daemon::DaemonConfig {
        addr,
        router: monitor.cfg.routers.first().cloned().unwrap_or_default(),
        refresh_secs,
        tick: pause,
        max_cycles: (cycles > 0).then_some(cycles),
        topology_events: churn.as_ref().map(|s| s.strip(None)).unwrap_or_default(),
    };
    let engine = if fleet {
        Engine::Fleet(monitor)
    } else {
        Engine::Single(monitor)
    };
    let tick = move |engine: &mut Engine| tick(&mut sc, engine.monitor_mut());
    let handle =
        mantra_daemon::spawn(cfg, engine, tick).map_err(|e| format!("starting mantrad: {e}"))?;
    mantra_daemon::install_signal_handlers();
    eprintln!("mantrad listening on http://{}", handle.addr());
    if cycles > 0 {
        eprintln!("collection stops after {cycles} cycle(s); queries keep serving");
    }
    while !mantra_daemon::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("mantrad: shutdown signal received, exiting");
    handle.stop();
    Ok(())
}

/// `mantra archive`: inspect, replay, or rewrite an on-disk table archive.
pub fn archive(sub: &str, opts: &Opts, out: &mut dyn Write) -> Outcome {
    match sub {
        "info" => archive_info(opts, out),
        "replay" => archive_replay(opts, out),
        "compact" => archive_compact(opts, out),
        other => unreachable!("`flags` rejects archive subcommand '{other}'"),
    }
}

fn required_path<'a>(opts: &'a Opts, key: &str) -> Result<&'a Path, String> {
    opts.get(key)
        .map(Path::new)
        .ok_or_else(|| format!("--{key} FILE is required"))
}

/// Opens an archive for inspection without ever writing to it — `info`
/// and `replay` are read paths, so they must not heal (truncate) a torn
/// tail out from under a process still appending to the file.
fn load_archive(path: &Path) -> Result<TableLog, String> {
    TableLog::load_read_only(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn archive_info(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let path = required_path(opts, "path")?;
    let log = load_archive(path)?;
    let stats = log.archive_stats();
    let format = match stats.format_version {
        1 => "MANTRARC v1 (binary, length-prefixed, JSON payloads; read-only)".to_string(),
        v => format!("MANTRARC v{v} (binary, id-keyed, embedded dictionary)"),
    };
    writeln!(out, "archive:     {}", path.display())?;
    writeln!(out, "format:      {format}")?;
    if stats.format_version >= 2 {
        writeln!(
            out,
            "dictionary:  epoch {}, {} interned entries",
            stats.epoch, stats.dict_entries
        )?;
    }
    writeln!(
        out,
        "records:     {} ({} checkpoints)",
        stats.records, stats.checkpoints
    )?;
    writeln!(out, "stored:      {} bytes", stats.bytes)?;
    // The open is read-only: a torn tail is reported, never cut.
    if stats.recovered_bytes > 0 {
        writeln!(
            out,
            "torn tail:   {} bytes past the last intact record, left in place",
            stats.recovered_bytes
        )?;
    }
    if let Some(t) = log.last() {
        writeln!(
            out,
            "tail:        {} at {}",
            t.router,
            t.captured_at.iso8601()
        )?;
    }
    Ok(())
}

fn archive_replay(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let path = required_path(opts, "path")?;
    let log = load_archive(path)?;
    let mut snapshots = 0usize;
    for (i, tables) in log.replay_iter().enumerate() {
        let tables = tables.map_err(|e| format!("replay failed at record {i}: {e}"))?;
        writeln!(out, "{}", replay_summary_line(i, &tables))?;
        snapshots += 1;
    }
    out.flush()?;
    eprintln!("{snapshots} snapshot(s) replayed");
    Ok(())
}

/// Parses a `--drop-before` timestamp: raw Unix seconds, `YYYY-MM-DD`,
/// or `YYYY-MM-DDTHH:MM:SS` (UTC). Now shared with the daemon's `at=` and
/// `since=` query parameters via [`SimTime::parse`].
fn parse_sim_time(s: &str) -> Result<SimTime, String> {
    SimTime::parse(s)
}

fn archive_compact(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let path = required_path(opts, "path")?;
    let dest = required_path(opts, "out")?;
    // Creating --out truncates it: it must not be the source under
    // another name (`./x`, a symlink, a hard link).
    if same_file(path, dest) {
        return Err(format!(
            "--out {} is the same file as --path {}; compact into a new file",
            dest.display(),
            path.display()
        )
        .into());
    }
    let full_every = opts.u64_or("full-every", 96)? as usize;
    let drop_before = opts.get("drop-before").map(parse_sim_time).transpose()?;
    let src = load_archive(path)?;
    let (dst, dropped) = compact_archive(
        &src,
        dest,
        &CompactOptions {
            full_every,
            drop_before,
            sync: SyncPolicy::default(),
        },
    )
    .map_err(|e| format!("compacting into {}: {e}", dest.display()))?;
    let before = src.archive_stats();
    let after = dst.archive_stats();
    writeln!(
        out,
        "compacted {} ({} records, {} bytes) into {} ({} records, {} bytes, {} checkpoints)",
        path.display(),
        before.records,
        before.bytes,
        dest.display(),
        after.records,
        after.bytes,
        after.checkpoints,
    )?;
    writeln!(
        out,
        "format:      MANTRARC v{}, dictionary epoch {} ({} entries)",
        after.format_version, after.epoch, after.dict_entries
    )?;
    if dropped > 0 {
        writeln!(
            out,
            "dropped:     {dropped} snapshot(s) before the --drop-before cutoff"
        )?;
    }
    Ok(())
}

/// Whether `a` and `b` both exist and are one file: the same device and
/// inode on Unix, which also catches symlinks and hard links, and equal
/// canonical paths elsewhere.
fn same_file(a: &Path, b: &Path) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        match (std::fs::metadata(a), std::fs::metadata(b)) {
            (Ok(x), Ok(y)) => x.dev() == y.dev() && x.ino() == y.ino(),
            _ => false,
        }
    }
    #[cfg(not(unix))]
    {
        match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
            (Ok(x), Ok(y)) => x == y,
            _ => false,
        }
    }
}

/// `mantra health`: monitor through injected capture failures with the
/// resilient parallel collector and report per-router collection health.
pub fn health(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let hours = opts.u64_or("hours", 12)?;
    let fail = opts.f64_or("fail", 0.2)?;
    let truncate = opts.f64_or("truncate", 0.1)?;
    let retries = opts.u64_or("retries", 3)?;
    if !(0.0..=1.0).contains(&fail) || !(0.0..=1.0).contains(&truncate) {
        return Err("--fail and --truncate must be in [0,1]".into());
    }
    if retries == 0 {
        return Err("--retries must be at least 1".into());
    }
    let seed = opts.u64_or("seed", 1998)?;
    let mut sc = scenario(opts)?;
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            retry: RetryPolicy {
                max_attempts: retries as u32,
                ..RetryPolicy::default()
            },
            ..MonitorConfig::default()
        },
        1,
    );
    let cycles = hours * 3_600 / monitor.cfg.interval.as_secs();
    eprintln!(
        "monitoring {hours}h ({cycles} cycles) with {:.0}% login failures, \
         {:.0}% truncations, {retries} attempts per capture...",
        fail * 100.0,
        truncate * 100.0,
    );
    let mut now = sc.sim.clock;
    for i in 0..cycles {
        now = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(now);
        let access = FlakyAccess::new(&sc.sim, fail, truncate, seed ^ i);
        monitor.run_cycle(&access, now);
    }
    writeln!(out, "{}", monitor.health(now).render())?;
    writeln!(out, "\n{}", monitor.stage_table().render())?;
    writeln!(out, "\n{}", monitor.parse_table().render())?;
    let cache = monitor.query_cache().stats();
    writeln!(
        out,
        "\nquery cache: {} hit(s), {} miss(es), {} eviction(s), {} entr{} resident",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.entries,
        if cache.entries == 1 { "y" } else { "ies" }
    )?;
    if monitor.parse_degraded() {
        let s = monitor.parse_last();
        writeln!(
            out,
            "WARNING: degraded parse — {} of {} row-like lines malformed in the last \
             cycle (threshold {}%); CLI output formats may have drifted",
            s.malformed,
            s.parsed + s.malformed,
            mantra_core::monitor::DEGRADED_PARSE_PCT,
        )?;
    }
    let degraded: Vec<&str> = monitor
        .cfg
        .routers
        .iter()
        .filter(|r| monitor.log(r).is_some_and(TableLog::degraded))
        .map(String::as_str)
        .collect();
    if !degraded.is_empty() {
        writeln!(
            out,
            "WARNING: degraded persistence on {} — archives fell back to memory, \
             hit write errors, or shed records on a full writer queue; \
             the archived data is incomplete or will not survive a restart",
            degraded.join(", ")
        )?;
    }
    for router in &monitor.cfg.routers.clone() {
        let Some(h) = monitor.router_health(router) else {
            continue;
        };
        let attempts = h.successes + h.failures;
        if attempts > 0 {
            writeln!(
                out,
                "{router}: {:.1}% captured ({} recovered by retry, {} salvaged from partials)",
                h.successes as f64 / attempts as f64 * 100.0,
                h.retry_successes,
                h.salvaged,
            )?;
        }
    }
    Ok(())
}

/// `mantra incident`: replay the 1998-10-14 route injection and diagnose.
pub fn incident(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let seed = opts.u64_or("seed", 1998)?;
    let mut sc = Scenario::ucsb_injection_day(seed);
    let mut monitor = Monitor::new(
        MonitorConfig {
            routers: vec!["ucsb-gw".into()],
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    );
    let end = sc.sim.end_time();
    loop {
        let next = sc.sim.clock + monitor.cfg.interval;
        if next > end {
            break;
        }
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
    }
    let series = monitor.route_series("ucsb-gw", "dvmrp-routes", |r| r.dvmrp_reachable as f64);
    let mut g = mantra_core::output::Graph::new("DVMRP routes at ucsb-gw, 1998-10-14");
    g.overlay(series);
    writeln!(out, "{}", g.render(96, 14))?;
    let injection = monitor.anomalies.iter().find(|a| {
        matches!(
            a.kind,
            mantra_core::anomaly::AnomalyKind::RouteInjection { .. }
        )
    });
    match injection {
        Some(a) => writeln!(out, "diagnosis: {:?} at {}", a.kind, a.at)?,
        None => writeln!(out, "no injection detected (unexpected)")?,
    }
    Ok(())
}

/// `mantra mwatch`: map the internetwork.
pub fn mwatch(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let sc = warmed(opts, 2)?;
    let report = mantra_tools::mwatch(&sc.sim.net, sc.ucsb);
    writeln!(out, "{}", report.summary())?;
    for r in &report.routers {
        write!(out, "{}", r.render())?;
    }
    Ok(())
}

/// `mantra mtrace`: trace from FIXW to the busiest sender.
pub fn mtrace(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let sc = warmed(opts, 4)?;
    let Some((group, part)) = sc
        .sim
        .sessions
        .iter()
        .flat_map(|s| s.participants.values().map(move |p| (s.group, p.clone())))
        .max_by_key(|(_, p)| p.rate.bps())
    else {
        return Err("no sessions live; try another seed".into());
    };
    let trace = mantra_tools::mtrace(&sc.sim.net, sc.fixw, part.addr, group);
    write!(out, "{}", trace.render(part.addr, group))?;
    Ok(())
}

/// `mantra snmpwalk`: walk an agent subtree on FIXW.
pub fn snmpwalk(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let sc = warmed(opts, 4)?;
    let community = opts.get("community").unwrap_or("public");
    let oid: mantra_snmp::Oid = opts
        .get("oid")
        .unwrap_or("1.3.6.1.2.1")
        .parse()
        .map_err(|_| "--oid: malformed OID".to_string())?;
    let mut agent = mantra_snmp::Agent::new("public");
    mantra_snmp::mib::refresh_agent(&mut agent, &sc.sim.net, sc.fixw, sc.sim.clock);
    let rows = agent.walk(community, &oid).map_err(|e| e.to_string())?;
    for (o, v) in &rows {
        writeln!(out, "{o} = {v:?}")?;
    }
    eprintln!("{} bindings", rows.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sim_time_accepts_valid_forms() {
        assert_eq!(parse_sim_time("0").unwrap(), SimTime(0));
        assert_eq!(parse_sim_time("907113600").unwrap(), SimTime(907_113_600));
        assert_eq!(
            parse_sim_time("1970-01-01").unwrap(),
            SimTime::from_ymd_hms(1970, 1, 1, 0, 0, 0)
        );
        assert_eq!(
            parse_sim_time("1998-10-14T06:30:00").unwrap(),
            SimTime::from_ymd_hms(1998, 10, 14, 6, 30, 0)
        );
        // Leap days: every fourth year, and century years divisible by
        // 400.
        assert!(parse_sim_time("2024-02-29").is_ok());
        assert!(parse_sim_time("2000-02-29").is_ok());
        // Long and short month boundaries.
        assert!(parse_sim_time("2026-01-31").is_ok());
        assert!(parse_sim_time("2026-04-30").is_ok());
    }

    #[test]
    fn parse_sim_time_rejects_invalid_calendar_dates() {
        // Days that don't exist in their month.
        let e = parse_sim_time("2026-02-30").unwrap_err();
        assert!(e.contains("2026-02 has 28 days"), "{e}");
        assert!(parse_sim_time("2026-04-31").is_err());
        assert!(parse_sim_time("2026-06-31").is_err());
        // Non-leap years: plain, and the 100-not-400 century rule.
        assert!(parse_sim_time("2023-02-29").is_err());
        assert!(parse_sim_time("2100-02-29").is_err());
        // Out-of-range fields.
        assert!(parse_sim_time("2026-13-01").is_err());
        assert!(parse_sim_time("2026-00-10").is_err());
        assert!(parse_sim_time("2026-01-00").is_err());
        assert!(parse_sim_time("2026-01-32").is_err());
        assert!(parse_sim_time("1969-12-31").is_err());
        assert!(parse_sim_time("2026-01-01T24:00:00").is_err());
        assert!(parse_sim_time("2026-01-01T12:60:00").is_err());
        // Malformed shapes.
        assert!(parse_sim_time("2026-01").is_err());
        assert!(parse_sim_time("2026-01-01-01").is_err());
        assert!(parse_sim_time("2026-01-01T12:00").is_err());
        assert!(parse_sim_time("not-a-date").is_err());
    }
}
