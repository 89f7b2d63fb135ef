//! The subcommand implementations.

use std::path::{Path, PathBuf};

use mantra_core::archive::replay_summary_line;
use mantra_core::collector::FlakyAccess;
use mantra_core::logger::{compact_archive, CompactOptions, TableLog};
use mantra_core::{
    ArchiveSpec, BackpressureMode, FleetMonitor, Monitor, MonitorConfig, RetryPolicy, SyncPolicy,
    WriterConfig,
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
                  [--fleet R] [--shards N] [--table-rows N]
                  [--churn calm|flappy|partition]
  mantra health   [--seed N] [--native F] [--hours H] [--fail P] [--truncate P]
                  [--retries N]
  mantra daemon   [--addr HOST:PORT] [--seed N] [--native F] [--loss P]
                  [--archive-dir DIR] [--cycles N] [--tick-ms MS] [--refresh S]
                  [--fleet R] [--shards N] [--churn P]
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
                  (all of them), sharded across --shards monitors
  --shards N      monitor shards for fleet mode (default 1; implies --fleet 50
                  when --fleet is absent)
  --table-rows N  fleet tables degrade to the worst N rows + a totals footer
                  (default 64)
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

/// The flags each (sub)command accepts; anything else is rejected before
/// the command runs, so `monitor --shard 4` cannot silently run
/// unsharded. Errors on an unknown command or archive subcommand.
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
            "shards",
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
            "shards",
            "table-rows",
            "churn",
            "fsync-every",
            "fsync-bytes",
            "archive-writer",
            "archive-queue",
        ],
        ("incident", _) => &["seed"],
        ("archive", Some("info" | "replay")) => &["path", "full-every"],
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

fn scenario(opts: &Opts) -> Result<Scenario, String> {
    let seed = opts.u64_or("seed", 1998)?;
    let native = opts.f64_or("native", 0.4)?;
    if !(0.0..=1.0).contains(&native) {
        return Err("--native must be in [0,1]".into());
    }
    let loss = opts.f64_or("loss", 0.02)?;
    if !(0.0..=1.0).contains(&loss) {
        return Err("--loss must be in [0,1]".into());
    }
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
fn print_event_strip(schedule: &ChurnSchedule) {
    println!("topology events:");
    for (at, label) in schedule.strip(None) {
        println!("  {}  {label}", at.iso8601());
    }
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

/// `mantra monitor`: run the full pipeline and print Mantra's output.
pub fn monitor(opts: &Opts) -> Result<(), String> {
    let hours = opts.u64_or("hours", 12)?;
    let (archive, archive_dir) = archive_spec(opts)?;
    if opts.get("fleet").is_some() || opts.get("shards").is_some() {
        return monitor_fleet(opts, archive, archive_dir.as_deref());
    }
    let mut sc = scenario(opts)?;
    let churn = churn_schedule(opts, &mut sc)?;
    let mut monitor = Monitor::new(MonitorConfig {
        routers: vec!["fixw".into(), "ucsb-gw".into()],
        interval: sc.sim.tick(),
        archive,
        ..MonitorConfig::default()
    });
    let cycles = hours * 3_600 / monitor.cfg.interval.as_secs();
    eprintln!("monitoring {hours}h of simulated time ({cycles} cycles)...");
    let mut now = sc.sim.clock;
    for _ in 0..cycles {
        now = sc.sim.clock + monitor.cfg.interval;
        sc.sim.advance_to(now);
        monitor.run_cycle(&sc.sim, now);
    }
    for router in ["fixw", "ucsb-gw"] {
        let Some(u) = monitor.usage_history(router).last() else {
            continue;
        };
        let r = monitor.route_history(router).last().expect("same cycles");
        println!(
            "{router}: {} sessions ({} active), {} participants ({} senders), {}, {} DVMRP routes",
            u.sessions,
            u.active_sessions,
            u.participants,
            u.senders,
            u.total_bandwidth,
            r.dvmrp_reachable,
        );
    }
    println!("\n{}", monitor.busiest_sessions("fixw", 8).render());
    println!("{}", monitor.usage_graph("fixw").render(96, 14));
    if !monitor.anomalies.is_empty() {
        println!(
            "{} anomaly(ies) detected; first: {:?}",
            monitor.anomalies.len(),
            monitor.anomalies[0]
        );
    }
    if let Some(schedule) = &churn {
        // A churned run surfaces the lifecycle column — routers that
        // left are stale(n) or retired, not silently absent.
        println!("\n{}", monitor.health(now).render());
        print_event_strip(schedule);
    }
    if let Some(dir) = &archive_dir {
        println!("\n{}", monitor.archive_table().render());
        eprintln!("archives written under {}", dir.display());
    }
    if let Some(path) = opts.get("html") {
        let events = churn.as_ref().map(|s| s.strip(None)).unwrap_or_default();
        std::fs::write(
            path,
            mantra_core::web::report_html(&monitor, "fixw", &events),
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `mantra monitor --fleet R [--shards N]`: the sharded fleet path over
/// the fleet-scale scenario, every router monitored. Everything printed
/// to stdout is shard-invariant — the fleet-smoke CI job diffs a
/// `--shards 1` run against a `--shards 4` run and expects no output
/// difference, which is exactly the aggregation tier's exactness claim.
fn monitor_fleet(
    opts: &Opts,
    archive: ArchiveSpec,
    archive_dir: Option<&Path>,
) -> Result<(), String> {
    let hours = opts.u64_or("hours", 12)?;
    let seed = opts.u64_or("seed", 1998)?;
    let native = opts.f64_or("native", 0.4)?;
    if !(0.0..=1.0).contains(&native) {
        return Err("--native must be in [0,1]".into());
    }
    let loss = opts.f64_or("loss", 0.02)?;
    if !(0.0..=1.0).contains(&loss) {
        return Err("--loss must be in [0,1]".into());
    }
    let target = opts.u64_or("fleet", 50)? as usize;
    if target < 3 {
        return Err("--fleet must be at least 3 routers".into());
    }
    let shards = opts.u64_or("shards", 1)?.max(1) as usize;
    let table_rows = opts.u64_or("table-rows", 64)?.max(1) as usize;
    let mut sc = Scenario::fleet_snapshot(seed, target, native);
    sc.sim.set_report_loss(loss);
    let churn = churn_schedule(opts, &mut sc)?;
    let routers: Vec<String> = sc
        .sim
        .monitored
        .iter()
        .map(|id| sc.sim.net.topo.router(*id).name.clone())
        .collect();
    let mut fleet = FleetMonitor::new(
        MonitorConfig {
            routers,
            interval: sc.sim.tick(),
            archive,
            table_detail_limit: table_rows,
            ..MonitorConfig::default()
        },
        shards,
    );
    let cycles = hours * 3_600 / fleet.cfg.interval.as_secs();
    eprintln!(
        "monitoring {} routers across {} shard(s), {hours}h of simulated time ({cycles} cycles)...",
        fleet.cfg.routers.len(),
        fleet.shard_count(),
    );
    let mut now = sc.sim.clock;
    for _ in 0..cycles {
        now = sc.sim.clock + fleet.cfg.interval;
        sc.sim.advance_to(now);
        fleet.run_cycle(&sc.sim, now);
    }
    if let (Some(u), Some(r)) = (fleet.usage_history().last(), fleet.route_history().last()) {
        println!(
            "fleet: {} sessions ({} active), {} participants ({} senders), {}, {} DVMRP routes",
            u.sessions,
            u.active_sessions,
            u.participants,
            u.senders,
            u.total_bandwidth,
            r.dvmrp_reachable,
        );
    }
    println!("{} anomaly(ies) fleet-wide", fleet.anomalies.len());
    // The shard column stays off stdout (it is the one shard-dependent
    // value); the HTML report keeps it.
    let mut health = fleet.health(now);
    health.drop_column("shard");
    println!("\n{}", health.render());
    if let Some(schedule) = &churn {
        // The strip is shard-invariant, so it is safe on the stdout the
        // fleet-smoke job diffs across shard counts.
        print_event_strip(schedule);
    }
    if let Some(dir) = archive_dir {
        let mut archives = fleet.archive_table();
        archives.drop_column("shard");
        println!("{}", archives.render());
        eprintln!("archives written under {}", dir.display());
    }
    println!("{}", fleet.usage_graph().render(96, 14));
    if let Some(path) = opts.get("html") {
        let events = churn.as_ref().map(|s| s.strip(None)).unwrap_or_default();
        std::fs::write(
            path,
            mantra_core::web::fleet_report_html(&fleet, now, &events),
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `mantra daemon`: run mantrad — collection on a tick thread, concurrent
/// HTTP/1.1 + JSON queries (health, usage, anomalies, parse accounting,
/// time-travel archive replay) until SIGTERM/SIGINT.
pub fn daemon(opts: &Opts) -> Result<(), String> {
    use std::time::Duration;

    let (archive, archive_dir) = archive_spec(opts)?;
    let addr = opts.get("addr").unwrap_or("127.0.0.1:4617").to_string();
    let cycles = opts.u64_or("cycles", 0)?;
    let cfg = mantra_daemon::DaemonConfig {
        addr,
        refresh_secs: opts.u64_or("refresh", 2)?.max(1),
        tick: Duration::from_millis(opts.u64_or("tick-ms", 250)?),
        max_cycles: (cycles > 0).then_some(cycles),
        ..mantra_daemon::DaemonConfig::default()
    };
    if archive_dir.is_none() {
        eprintln!("note: archives are in-memory (no --archive-dir); /replay has nothing to serve");
    }
    type Tick = Box<dyn FnMut(&mut Engine) -> SimTime + Send>;
    let fleet_mode = opts.get("fleet").is_some() || opts.get("shards").is_some();
    let (cfg, engine, tick): (_, Engine, Tick) = if fleet_mode {
        let seed = opts.u64_or("seed", 1998)?;
        let native = opts.f64_or("native", 0.4)?;
        let loss = opts.f64_or("loss", 0.02)?;
        if !(0.0..=1.0).contains(&native) || !(0.0..=1.0).contains(&loss) {
            return Err("--native and --loss must be in [0,1]".into());
        }
        let target = opts.u64_or("fleet", 50)? as usize;
        let shards = opts.u64_or("shards", 1)?.max(1) as usize;
        let table_rows = opts.u64_or("table-rows", 64)?.max(1) as usize;
        let mut sc = Scenario::fleet_snapshot(seed, target, native);
        sc.sim.set_report_loss(loss);
        let churn = churn_schedule(opts, &mut sc)?;
        let routers: Vec<String> = sc
            .sim
            .monitored
            .iter()
            .map(|id| sc.sim.net.topo.router(*id).name.clone())
            .collect();
        let router = routers.first().cloned().unwrap_or_default();
        let fleet = FleetMonitor::new(
            MonitorConfig {
                routers,
                interval: sc.sim.tick(),
                archive,
                table_detail_limit: table_rows,
                ..MonitorConfig::default()
            },
            shards,
        );
        let interval = fleet.cfg.interval;
        let tick: Tick = Box::new(move |engine| {
            let next = sc.sim.clock + interval;
            sc.sim.advance_to(next);
            if let Engine::Fleet(f) = engine {
                f.run_cycle(&sc.sim, next);
            }
            next
        });
        let cfg = mantra_daemon::DaemonConfig {
            router,
            topology_events: churn.as_ref().map(|s| s.strip(None)).unwrap_or_default(),
            ..cfg
        };
        (cfg, Engine::Fleet(fleet), tick)
    } else {
        let mut sc = scenario(opts)?;
        let churn = churn_schedule(opts, &mut sc)?;
        let monitor = Monitor::new(MonitorConfig {
            routers: vec!["fixw".into(), "ucsb-gw".into()],
            interval: sc.sim.tick(),
            archive,
            ..MonitorConfig::default()
        });
        let interval = monitor.cfg.interval;
        let tick: Tick = Box::new(move |engine| {
            let next = sc.sim.clock + interval;
            sc.sim.advance_to(next);
            if let Engine::Single(m) = engine {
                m.run_cycle(&sc.sim, next);
            }
            next
        });
        let cfg = mantra_daemon::DaemonConfig {
            topology_events: churn.as_ref().map(|s| s.strip(None)).unwrap_or_default(),
            ..cfg
        };
        (cfg, Engine::Single(monitor), tick)
    };
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
pub fn archive(sub: &str, opts: &Opts) -> Result<(), String> {
    match sub {
        "info" => archive_info(opts),
        "replay" => archive_replay(opts),
        "compact" => archive_compact(opts),
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
fn load_archive(path: &Path, full_every: usize) -> Result<TableLog, String> {
    TableLog::load_read_only(path, full_every).map_err(|e| format!("{}: {e}", path.display()))
}

fn archive_info(opts: &Opts) -> Result<(), String> {
    let path = required_path(opts, "path")?;
    let log = load_archive(path, opts.u64_or("full-every", 96)? as usize)?;
    let stats = log.archive_stats();
    let info = log.describe();
    let format = match info.format_version {
        1 => "MANTRARC v1 (binary, length-prefixed, JSON payloads; read-only)".to_string(),
        v => format!("MANTRARC v{v} (binary, id-keyed, embedded dictionary)"),
    };
    println!("archive:     {}", path.display());
    println!("format:      {format}");
    if info.format_version >= 2 {
        println!(
            "dictionary:  epoch {}, {} interned entries",
            info.epoch, info.dict_entries
        );
    }
    println!(
        "records:     {} ({} checkpoints)",
        stats.records, stats.checkpoints
    );
    println!("stored:      {} bytes", stats.bytes);
    // The open is read-only: a torn tail is reported, never cut.
    if stats.recovered_bytes > 0 {
        println!(
            "torn tail:   {} bytes past the last intact record, left in place",
            stats.recovered_bytes
        );
    }
    if let Some(t) = log.last() {
        println!("tail:        {} at {}", t.router, t.captured_at.iso8601());
    }
    Ok(())
}

fn archive_replay(opts: &Opts) -> Result<(), String> {
    let path = required_path(opts, "path")?;
    let log = load_archive(path, opts.u64_or("full-every", 96)? as usize)?;
    let mut snapshots = 0usize;
    for (i, tables) in log.replay_iter().enumerate() {
        let tables = tables.map_err(|e| format!("replay failed at record {i}: {e}"))?;
        println!("{}", replay_summary_line(i, &tables));
        snapshots += 1;
    }
    eprintln!("{snapshots} snapshot(s) replayed");
    Ok(())
}

/// Parses a `--drop-before` timestamp: raw Unix seconds, `YYYY-MM-DD`,
/// or `YYYY-MM-DDTHH:MM:SS` (UTC). Now shared with the daemon's `at=` and
/// `since=` query parameters via [`SimTime::parse`].
fn parse_sim_time(s: &str) -> Result<SimTime, String> {
    SimTime::parse(s)
}

fn archive_compact(opts: &Opts) -> Result<(), String> {
    let path = required_path(opts, "path")?;
    let out = required_path(opts, "out")?;
    // Creating --out truncates it: it must not be the source under
    // another name (`./x`, a symlink, a hard link).
    if same_file(path, out) {
        return Err(format!(
            "--out {} is the same file as --path {}; compact into a new file",
            out.display(),
            path.display()
        ));
    }
    let full_every = opts.u64_or("full-every", 96)? as usize;
    let drop_before = opts.get("drop-before").map(parse_sim_time).transpose()?;
    let src = load_archive(path, full_every)?;
    let (dst, dropped) = compact_archive(
        &src,
        out,
        &CompactOptions {
            full_every,
            drop_before,
            sync: SyncPolicy::default(),
        },
    )
    .map_err(|e| format!("compacting into {}: {e}", out.display()))?;
    let before = src.archive_stats();
    let after = dst.archive_stats();
    let info = dst.describe();
    println!(
        "compacted {} ({} records, {} bytes) into {} ({} records, {} bytes, {} checkpoints)",
        path.display(),
        before.records,
        before.bytes,
        out.display(),
        after.records,
        after.bytes,
        after.checkpoints,
    );
    println!(
        "format:      MANTRARC v{}, dictionary epoch {} ({} entries)",
        info.format_version, info.epoch, info.dict_entries
    );
    if dropped > 0 {
        println!("dropped:     {dropped} snapshot(s) before the --drop-before cutoff");
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
pub fn health(opts: &Opts) -> Result<(), String> {
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
    let mut monitor = Monitor::new(MonitorConfig {
        routers: vec!["fixw".into(), "ucsb-gw".into()],
        interval: sc.sim.tick(),
        retry: RetryPolicy {
            max_attempts: retries as u32,
            ..RetryPolicy::default()
        },
        ..MonitorConfig::default()
    });
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
    println!("{}", monitor.health(now).render());
    println!("\n{}", monitor.stage_table().render());
    println!("\n{}", monitor.parse_table().render());
    let cache = monitor.query_cache().stats();
    println!(
        "\nquery cache: {} hit(s), {} miss(es), {} eviction(s), {} entr{} resident",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.entries,
        if cache.entries == 1 { "y" } else { "ies" }
    );
    if monitor.parse_degraded() {
        let s = monitor.parse_last;
        println!(
            "WARNING: degraded parse — {} of {} row-like lines malformed in the last \
             cycle (threshold {}%); CLI output formats may have drifted",
            s.malformed,
            s.parsed + s.malformed,
            mantra_core::monitor::DEGRADED_PARSE_PCT,
        );
    }
    let degraded: Vec<&str> = monitor
        .cfg
        .routers
        .iter()
        .filter(|r| monitor.router_health(r).is_some_and(|h| h.archive_degraded))
        .map(String::as_str)
        .collect();
    if !degraded.is_empty() {
        println!(
            "WARNING: degraded persistence on {} — archives fell back to memory, \
             hit write/replay errors, or shed records on a full writer queue; \
             the archived data is incomplete or will not survive a restart",
            degraded.join(", ")
        );
    }
    for router in &monitor.cfg.routers.clone() {
        let Some(h) = monitor.router_health(router) else {
            continue;
        };
        let attempts = h.successes + h.failures;
        if attempts > 0 {
            println!(
                "{router}: {:.1}% captured ({} recovered by retry, {} salvaged from partials)",
                h.successes as f64 / attempts as f64 * 100.0,
                h.retry_successes,
                h.salvaged,
            );
        }
    }
    Ok(())
}

/// `mantra incident`: replay the 1998-10-14 route injection and diagnose.
pub fn incident(opts: &Opts) -> Result<(), String> {
    let seed = opts.u64_or("seed", 1998)?;
    let mut sc = Scenario::ucsb_injection_day(seed);
    let mut monitor = Monitor::new(MonitorConfig {
        routers: vec!["ucsb-gw".into()],
        interval: sc.sim.tick(),
        ..MonitorConfig::default()
    });
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
    println!("{}", g.render(96, 14));
    let injection = monitor.anomalies.iter().find(|a| {
        matches!(
            a.kind,
            mantra_core::anomaly::AnomalyKind::RouteInjection { .. }
        )
    });
    match injection {
        Some(a) => println!("diagnosis: {:?} at {}", a.kind, a.at),
        None => println!("no injection detected (unexpected)"),
    }
    Ok(())
}

/// `mantra mwatch`: map the internetwork.
pub fn mwatch(opts: &Opts) -> Result<(), String> {
    let sc = warmed(opts, 2)?;
    let report = mantra_tools::mwatch(&sc.sim.net, sc.ucsb);
    println!("{}", report.summary());
    for r in &report.routers {
        print!("{}", r.render());
    }
    Ok(())
}

/// `mantra mtrace`: trace from FIXW to the busiest sender.
pub fn mtrace(opts: &Opts) -> Result<(), String> {
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
    print!("{}", trace.render(part.addr, group));
    Ok(())
}

/// `mantra snmpwalk`: walk an agent subtree on FIXW.
pub fn snmpwalk(opts: &Opts) -> Result<(), String> {
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
        println!("{o} = {v:?}");
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
