//! Web presentation: static HTML/SVG reports.
//!
//! The paper's results were "available via the web using interactive Java
//! applets". Applets are gone; the modern equivalent of Mantra's
//! presentation layer is a self-contained HTML report with inline SVG
//! line graphs — no external assets, viewable from a file. The
//! *operations* (sort, search, column algebra, zoom) live in
//! [`crate::output`]; this module renders their results.

use std::fmt::Write as _;

use mantra_net::SimTime;

use crate::logger::TableLog;
use crate::monitor::Monitor;
use crate::output::{Graph, Table};

/// Escapes text for HTML.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Renders a summary table as an HTML `<table>`.
pub fn table_html(t: &Table) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "<h3>{}</h3>", esc(&t.title));
    let _ = writeln!(
        out,
        "<table border=\"1\" cellspacing=\"0\" cellpadding=\"4\">"
    );
    let _ = write!(out, "<tr>");
    for c in &t.columns {
        let _ = write!(out, "<th>{}</th>", esc(c));
    }
    let _ = writeln!(out, "</tr>");
    for row in &t.rows {
        let _ = write!(out, "<tr>");
        for (i, _cell) in row.iter().enumerate() {
            let rendered = {
                // Reuse the table's own date-mode rendering through CSV
                // (cell rendering is private); CSV escaping is a no-op for
                // our numeric/time cells.
                let mut tmp = Table::new("", t.columns.iter().map(|s| s.as_str()).collect());
                tmp.date_mode = t.date_mode;
                tmp.push_row(row.clone());
                tmp.to_csv()
                    .lines()
                    .nth(1)
                    .and_then(|l| l.split(',').nth(i).map(str::to_string))
                    .unwrap_or_default()
            };
            let _ = write!(out, "<td>{}</td>", esc(&rendered));
        }
        let _ = writeln!(out, "</tr>");
    }
    let _ = writeln!(out, "</table>");
    if let Some(f) = &t.footer {
        let _ = writeln!(out, "<p><em>{}</em></p>", esc(f));
    }
    out
}

/// Renders a graph as inline SVG with axes, one polyline per series.
pub fn graph_svg(g: &Graph, width: u32, height: u32) -> String {
    const COLORS: [&str; 6] = [
        "#1f4e8c", "#b03a2e", "#1e8449", "#9a7d0a", "#6c3483", "#34495e",
    ];
    let (w, h) = (width.max(200), height.max(120));
    let (ml, mr, mt, mb) = (60.0, 10.0, 24.0, 36.0); // margins
    let plot_w = w as f64 - ml - mr;
    let plot_h = h as f64 - mt - mb;

    // Data ranges (reusing the graph's zoom window semantics).
    let windowed: Vec<_> = g
        .series
        .iter()
        .map(|s| match g.x_range {
            Some((a, b)) => s.window(a, b),
            None => s.clone(),
        })
        .collect();
    let xs: Vec<u64> = windowed
        .iter()
        .flat_map(|s| s.points.iter().map(|(t, _)| t.as_secs()))
        .collect();
    let x_lo = xs.iter().copied().min().unwrap_or(0);
    let x_hi = xs.iter().copied().max().unwrap_or(x_lo + 1).max(x_lo + 1);
    let (y_lo, y_hi) = g.y_range.unwrap_or_else(|| {
        let ys: Vec<f64> = windowed
            .iter()
            .flat_map(|s| s.points.iter().map(|(_, v)| *v))
            .collect();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if lo.is_finite() && hi.is_finite() {
            (lo.min(0.0), hi.max(lo + 1.0))
        } else {
            (0.0, 1.0)
        }
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\">"
    );
    let _ = writeln!(
        out,
        "<text x=\"{}\" y=\"16\" font-size=\"13\" font-family=\"sans-serif\">{}</text>",
        ml,
        esc(&g.title)
    );
    // Axes.
    let _ = writeln!(
        out,
        "<line x1=\"{ml}\" y1=\"{mt}\" x2=\"{ml}\" y2=\"{}\" stroke=\"#333\"/>",
        mt + plot_h
    );
    let _ = writeln!(
        out,
        "<line x1=\"{ml}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#333\"/>",
        mt + plot_h,
        ml + plot_w,
        mt + plot_h
    );
    // Y labels.
    for i in 0..=4 {
        let v = y_lo + (y_hi - y_lo) * f64::from(i) / 4.0;
        let y = mt + plot_h - plot_h * f64::from(i) / 4.0;
        let _ = writeln!(
            out,
            "<text x=\"4\" y=\"{:.0}\" font-size=\"10\" font-family=\"sans-serif\">{v:.1}</text>",
            y + 3.0
        );
    }
    // X labels (start/end).
    let _ = writeln!(
        out,
        "<text x=\"{ml}\" y=\"{}\" font-size=\"10\" font-family=\"sans-serif\">{}</text>",
        mt + plot_h + 14.0,
        SimTime(x_lo).iso8601()
    );
    let _ = writeln!(
        out,
        "<text x=\"{}\" y=\"{}\" font-size=\"10\" font-family=\"sans-serif\" text-anchor=\"end\">{}</text>",
        ml + plot_w,
        mt + plot_h + 14.0,
        SimTime(x_hi).iso8601()
    );
    // Series.
    for (si, s) in windowed.iter().enumerate() {
        let color = COLORS[si % COLORS.len()];
        let pts: Vec<String> = s
            .points
            .iter()
            .map(|(t, v)| {
                let x = ml + plot_w * (t.as_secs() - x_lo) as f64 / (x_hi - x_lo) as f64;
                let clamped = v.clamp(y_lo, y_hi);
                let y = mt + plot_h - plot_h * (clamped - y_lo) / (y_hi - y_lo).max(1e-12);
                format!("{x:.1},{y:.1}")
            })
            .collect();
        if !pts.is_empty() {
            let _ = writeln!(
                out,
                "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.2\" points=\"{}\"/>",
                pts.join(" ")
            );
        }
        // Legend.
        let ly = mt + 14.0 * si as f64;
        let _ = writeln!(
            out,
            "<rect x=\"{}\" y=\"{:.0}\" width=\"10\" height=\"3\" fill=\"{color}\"/>",
            ml + plot_w - 120.0,
            ly
        );
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"{:.0}\" font-size=\"10\" font-family=\"sans-serif\">{}</text>",
            ml + plot_w - 105.0,
            ly + 4.0,
            esc(&s.name)
        );
    }
    let _ = writeln!(out, "</svg>");
    out
}

/// Renders the topology-events strip: the churn timeline (joins, leaves,
/// link flaps, partitions) as a compact HTML list. Plain text markup, no
/// SVG — reports embed it alongside the graphs without disturbing their
/// chart count, and the daemon serves the same rows as JSON on
/// `/health`. Empty input renders an explicit "none" line so a calm run
/// is distinguishable from a report built without churn wiring.
pub fn topology_events_html(events: &[(SimTime, String)]) -> String {
    let mut out = String::new();
    if events.is_empty() {
        let _ = writeln!(out, "<p>Topology events: none.</p>");
        return out;
    }
    let _ = writeln!(out, "<p>Topology events ({}):</p><ol>", events.len());
    for (at, label) in events {
        let _ = writeln!(out, "<li>{} — {}</li>", at.iso8601(), esc(label));
    }
    let _ = writeln!(out, "</ol>");
    out
}

/// Renders a full monitoring report page for one router, with a
/// topology-events strip: `events` is the churn timeline up to the
/// report's moment (`Simulation::churn().strip(..)` in scenarios, empty
/// when monitoring a static world).
pub fn report_html(monitor: &Monitor, router: &str, events: &[(SimTime, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "<!DOCTYPE html>");
    let _ = writeln!(
        out,
        "<html><head><meta charset=\"utf-8\"><title>Mantra report: {}</title></head><body>",
        esc(router)
    );
    let _ = writeln!(out, "<h1>Mantra monitoring report — {}</h1>", esc(router));
    let _ = writeln!(
        out,
        "<p>{} cycles, {} capture failures, {} anomalies.</p>",
        monitor.cycles(),
        monitor.capture_failures(),
        monitor.anomalies.len()
    );
    // Every router's archive counts, read as the page renders.
    let (mut fallbacks, mut write_errors, mut dropped) = (0, 0, 0);
    let (mut fsyncs, mut pending, mut queued, mut blocked_nanos) = (0, 0, 0, 0);
    for log in monitor.logs() {
        let stats = log.archive_stats();
        fallbacks += u64::from(log.fell_back);
        write_errors += log.errors();
        dropped += stats.dropped_records;
        fsyncs += stats.fsyncs;
        pending += stats.pending_appends;
        queued += stats.queue_depth;
        blocked_nanos += stats.blocked_nanos;
    }
    if monitor.logs().any(TableLog::degraded) {
        let _ = writeln!(
            out,
            "<p><strong>Degraded persistence:</strong> {fallbacks} archive(s) fell back to \
             in-memory storage, {write_errors} write error(s) and {dropped} dropped \
             record(s) were recorded — data on the affected routers is incomplete or will \
             not survive a restart.</p>"
        );
    }
    if monitor.parse_degraded() {
        let s = monitor.parse_last();
        let _ = writeln!(
            out,
            "<p><strong>Degraded parse:</strong> {} of {} row-like lines were malformed in \
             the last cycle (threshold {}%) — CLI output formats may have drifted; the \
             tables below undercount the affected routers.</p>",
            s.malformed,
            s.parsed + s.malformed,
            crate::monitor::DEGRADED_PARSE_PCT
        );
    }
    let blocked_ms = blocked_nanos as f64 / 1e6;
    let _ = writeln!(
        out,
        "<p>Durability: {fsyncs} fsync(s) issued; {pending} append(s) pending since the \
         last fsync (lost on power failure), {queued} of them still queued for writer \
         threads; collection spent {blocked_ms:.1} ms blocked on full writer queues.</p>"
    );
    let cache = monitor.query_cache().stats();
    let _ = writeln!(
        out,
        "<p>Query cache: {} hit(s), {} miss(es), {} eviction(s); {} entr{} resident.</p>",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.entries,
        if cache.entries == 1 { "y" } else { "ies" }
    );
    let _ = writeln!(out, "{}", graph_svg(&monitor.usage_graph(router), 860, 300));
    let mut routes = Graph::new(format!("DVMRP routes at {router}"));
    routes.overlay(monitor.route_series(router, "dvmrp-routes", |r| r.dvmrp_reachable as f64));
    let _ = writeln!(out, "{}", graph_svg(&routes, 860, 240));
    let mut growth = Graph::new(format!("Archive growth at {router}"));
    let mut stored = crate::stats::Series::new("stored-kbytes");
    for (at, bytes) in monitor.archive_growth(router) {
        stored.push(*at, *bytes as f64 / 1024.0);
    }
    growth.overlay(stored);
    let _ = writeln!(out, "{}", graph_svg(&growth, 860, 200));
    let _ = writeln!(out, "{}", topology_events_html(events));
    let _ = writeln!(out, "{}", table_html(&monitor.busiest_sessions(router, 10)));
    let _ = writeln!(out, "{}", table_html(&monitor.top_senders(router, 10)));
    let _ = writeln!(out, "{}", table_html(&monitor.stage_table()));
    let _ = writeln!(out, "{}", table_html(&monitor.parse_table()));
    let _ = writeln!(out, "{}", table_html(&monitor.archive_table()));
    if let Some(lt) = monitor.longterm(router) {
        let _ = writeln!(
            out,
            "<p>route stability: {:.0}% of routes never flapped; median session lifetime {:.0} s over {} completed sessions.</p>",
            100.0 * lt.route_stability(),
            lt.session_lifetimes.median_secs(),
            lt.session_lifetimes.len()
        );
    }
    let _ = writeln!(out, "</body></html>");
    out
}

/// Renders the fleet-wide monitoring report: one page for the whole
/// fleet, built from the engine's fleet-wide outputs rather than any one
/// router's view, with a topology-events strip like [`report_html`].
pub fn fleet_report_html(fleet: &Monitor, now: SimTime, events: &[(SimTime, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "<!DOCTYPE html>");
    let _ = writeln!(
        out,
        "<html><head><meta charset=\"utf-8\"><title>Mantra fleet report</title></head><body>"
    );
    let _ = writeln!(
        out,
        "<h1>Mantra fleet report — {} routers</h1>",
        fleet.cfg.routers.len()
    );
    let _ = writeln!(
        out,
        "<p>{} cycles, {} capture failures, {} anomalies fleet-wide.</p>",
        fleet.cycles(),
        fleet.capture_failures(),
        fleet.anomalies.len()
    );
    let _ = writeln!(out, "{}", graph_svg(&fleet.fleet_usage_graph(), 860, 300));
    let mut routes = Graph::new("Fleet DVMRP routes (global)");
    let mut reachable = crate::stats::Series::new("dvmrp-reachable");
    let mut total = crate::stats::Series::new("dvmrp-total");
    for r in fleet.fleet_route_history() {
        reachable.push(r.at, r.dvmrp_reachable as f64);
        total.push(r.at, r.dvmrp_total as f64);
    }
    routes.overlay(reachable).overlay(total);
    let _ = writeln!(out, "{}", graph_svg(&routes, 860, 240));
    if fleet.parse_degraded() {
        let s = fleet.parse_last();
        let _ = writeln!(
            out,
            "<p><strong>Degraded parse:</strong> {} of {} row-like lines were malformed in \
             the last fleet cycle (threshold {}%).</p>",
            s.malformed,
            s.parsed + s.malformed,
            crate::monitor::DEGRADED_PARSE_PCT
        );
    }
    let cache = fleet.query_cache().stats();
    let _ = writeln!(
        out,
        "<p>Query cache: {} hit(s), {} miss(es), {} eviction(s); {} entr{} resident.</p>",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.entries,
        if cache.entries == 1 { "y" } else { "ies" }
    );
    let _ = writeln!(out, "{}", topology_events_html(events));
    let mut health = fleet.health(now);
    health.title = "Fleet collection health".into();
    let _ = writeln!(out, "{}", table_html(&health));
    let mut parse = fleet.parse_table();
    parse.title = "Parse accounting (fleet)".into();
    let _ = writeln!(out, "{}", table_html(&parse));
    let mut archives = fleet.archive_table();
    archives.title = "Fleet archives".into();
    let _ = writeln!(out, "{}", table_html(&archives));
    let divergent = fleet.consistency_view();
    if divergent.is_empty() {
        let _ = writeln!(out, "<p>Route consistency: no divergent router pairs.</p>");
    } else {
        let _ = writeln!(
            out,
            "<p>Route consistency: {} divergent router pair(s):</p><ul>",
            divergent.len()
        );
        for (a, b, r) in &divergent {
            let _ = writeln!(
                out,
                "<li>{} vs {}: similarity {:.2} ({} shared, {} only-first, {} only-second)</li>",
                esc(a),
                esc(b),
                r.similarity(),
                r.shared,
                r.only_first,
                r.only_second
            );
        }
        let _ = writeln!(out, "</ul>");
    }
    let _ = writeln!(out, "</body></html>");
    out
}

/// Injects the daemon's auto-refresh shell into a rendered report page
/// ([`report_html`] or [`fleet_report_html`]): a status strip at the top
/// is repopulated every `refresh_secs` seconds from the daemon's JSON
/// endpoints (`/health`, `/parse`, `/anomalies`) without reloading the
/// page, and a meta-refresh fallback reloads the whole report for
/// clients with scripting disabled.
pub fn live_wrap(body: &str, refresh_secs: u64) -> String {
    let secs = refresh_secs.max(1);
    let meta = format!(
        "<meta http-equiv=\"refresh\" content=\"{}\">",
        secs.saturating_mul(10)
    );
    let strip = format!(
        "<p id=\"live\">live: waiting for first poll (every {secs}s)\u{2026}</p>\
         <script>\n\
         async function mantraPoll() {{\n\
           try {{\n\
             const [h, p, a] = await Promise.all([\n\
               fetch('/health').then(r => r.json()),\n\
               fetch('/parse').then(r => r.json()),\n\
               fetch('/anomalies').then(r => r.json()),\n\
             ]);\n\
             document.getElementById('live').textContent =\n\
               'live: cycle ' + h.cycles + ', ' + h.routers.length + ' routers, ' +\n\
               p.totals.parsed + ' rows parsed, ' + a.anomalies.length + ' anomalies, ' +\n\
               'cache ' + h.query_cache.hits + ' hit(s)/' + h.query_cache.misses + ' miss(es)';\n\
           }} catch (e) {{\n\
             document.getElementById('live').textContent = 'live: poll failed (' + e + ')';\n\
           }}\n\
         }}\n\
         mantraPoll();\n\
         setInterval(mantraPoll, {secs} * 1000);\n\
         </script>"
    );
    body.replacen("</head>", &format!("{meta}</head>"), 1)
        .replacen("<body>", &format!("<body>{strip}"), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::Cell;
    use crate::stats::Series;

    fn t(n: u64) -> SimTime {
        SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 3600)
    }

    #[test]
    fn table_html_escapes_and_structures() {
        let mut table = Table::new("A <weird> & title", vec!["name", "v"]);
        table.push_row(vec![Cell::Text("x<y>&\"z\"".into()), Cell::Num(4.0)]);
        let html = table_html(&table);
        assert!(html.contains("&lt;weird&gt; &amp;"));
        assert!(html.contains("x&lt;y&gt;&amp;&quot;z&quot;"));
        assert_eq!(html.matches("<tr>").count(), html.matches("</tr>").count());
        assert_eq!(html.matches("<tr>").count(), 2);
    }

    #[test]
    fn table_html_renders_condensed_footer() {
        let mut table = Table::new("Big", vec!["name", "v"]);
        for i in 0..4 {
            table.push_row(vec![Cell::Text(format!("r{i}")), Cell::Num(i as f64)]);
        }
        table.condense(2, "v", "2 of 4 shown; totals: <6>");
        let html = table_html(&table);
        assert_eq!(html.matches("<tr>").count(), 3);
        assert!(html.contains("2 of 4 shown; totals: &lt;6&gt;"));
    }

    #[test]
    fn fleet_report_page_is_complete() {
        use crate::{Monitor, MonitorConfig};
        let mut sc = mantra_sim::Scenario::transition_snapshot(41, 0.3);
        let mut fleet = Monitor::new(
            MonitorConfig {
                routers: vec!["fixw".into(), "ucsb-gw".into()],
                interval: sc.sim.tick(),
                table_detail_limit: 1,
                ..MonitorConfig::default()
            },
            1,
        );
        for _ in 0..4 {
            let next = sc.sim.clock + fleet.cfg.interval;
            sc.sim.advance_to(next);
            fleet.run_cycle(&sc.sim, next);
        }
        let html = fleet_report_html(&fleet, sc.sim.clock, &[]);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("</html>"));
        assert_eq!(html.matches("<svg").count(), 2);
        assert!(html.contains("<h1>Mantra fleet report — 2 routers</h1>"));
        assert!(html.contains("Fleet usage"));
        assert!(html.contains("Fleet DVMRP routes"));
        assert!(html.contains("Fleet collection health"));
        assert!(html.contains("Parse accounting (fleet)"));
        assert!(html.contains("Fleet archives"));
        // Live simulator output parses cleanly — no degraded-parse banner.
        assert!(!html.contains("Degraded parse"));
        assert!(html.contains("Route consistency:"));
        // detail limit 1 → both fleet tables condensed with footers, each
        // led by its router column.
        assert!(html.contains("of 2 routers shown"));
        assert!(html.contains("of 2 archives shown"));
        assert_eq!(html.matches("<tr><th>router</th><th>ok</th>").count(), 1);
        assert_eq!(
            html.matches("<tr><th>router</th><th>backend</th>").count(),
            1
        );
    }

    #[test]
    fn graph_svg_has_polyline_per_series() {
        let mut g = Graph::new("usage & more");
        let mut a = Series::new("sessions");
        let mut b = Series::new("senders");
        for i in 0..24 {
            a.push(t(i), 100.0 + i as f64);
            b.push(t(i), 5.0);
        }
        g.overlay(a).overlay(b);
        let svg = graph_svg(&g, 600, 240);
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("usage &amp; more"));
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Points stay inside the viewbox.
        for seg in svg.split("points=\"").skip(1) {
            let pts = seg.split('"').next().unwrap();
            for p in pts.split(' ') {
                let (x, y) = p.split_once(',').unwrap();
                let x: f64 = x.parse().unwrap();
                let y: f64 = y.parse().unwrap();
                assert!((0.0..=600.0).contains(&x));
                assert!((0.0..=240.0).contains(&y));
            }
        }
    }

    #[test]
    fn empty_graph_svg_renders() {
        let g = Graph::new("empty");
        let svg = graph_svg(&g, 300, 150);
        assert!(svg.contains("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 0);
    }

    #[test]
    fn report_page_is_complete() {
        use crate::{Monitor, MonitorConfig};
        let mut sc = mantra_sim::Scenario::transition_snapshot(41, 0.3);
        let mut monitor = Monitor::new(
            MonitorConfig {
                routers: vec!["fixw".into()],
                interval: sc.sim.tick(),
                ..MonitorConfig::default()
            },
            1,
        );
        for _ in 0..8 {
            let next = sc.sim.clock + monitor.cfg.interval;
            sc.sim.advance_to(next);
            monitor.run_cycle(&sc.sim, next);
        }
        let html = report_html(&monitor, "fixw", &[]);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("</html>"));
        assert!(html.matches("<svg").count() == 3);
        assert!(html.contains("Archive growth"));
        assert!(html.contains("Busiest sessions"));
        assert!(html.contains("route stability"));
        assert!(html.contains("Pipeline stages"));
        assert!(html.contains("Parse accounting"));
        assert!(html.contains("Archives"));
        assert!(html.contains("Durability:"));
        // Healthy archives raise no persistence warning, and live
        // simulator output parses cleanly.
        assert!(!html.contains("Degraded persistence"));
        assert!(!html.contains("Degraded parse"));
    }

    #[test]
    fn unwritable_archive_dir_surfaces_degraded_persistence() {
        use crate::archive::ArchiveSpec;
        use crate::output::Cell;
        use crate::{Monitor, MonitorConfig};
        let mut sc = mantra_sim::Scenario::transition_snapshot(42, 0.2);
        // A path under a regular file can never become a directory, so
        // every router's archive falls back to the in-memory backend.
        let dir = crate::testing::TempDir::new("web-flat");
        let bogus = dir.join("flat");
        std::fs::write(&bogus, b"not a dir").unwrap();
        let mut monitor = Monitor::new(
            MonitorConfig {
                routers: vec!["fixw".into()],
                interval: sc.sim.tick(),
                archive: ArchiveSpec::File {
                    dir: bogus.join("archives"),
                    sync: crate::archive::SyncPolicy::default(),
                },
                ..MonitorConfig::default()
            },
            1,
        );
        for _ in 0..3 {
            let next = sc.sim.clock + monitor.cfg.interval;
            sc.sim.advance_to(next);
            monitor.run_cycle(&sc.sim, next);
        }
        // Monitoring kept going on the fallback backend…
        assert_eq!(monitor.usage_history("fixw").len(), 3);
        assert_eq!(monitor.log("fixw").unwrap().replay().unwrap().len(), 3);
        // …and the degradation is visible everywhere an operator looks:
        // the log's own health rule,
        let log = monitor.log("fixw").unwrap();
        assert!(log.fell_back && log.degraded());
        // the health table,
        let health = monitor.health(sc.sim.clock);
        let col = health.columns.iter().position(|c| c == "archive").unwrap();
        assert_eq!(health.rows[0][col], Cell::Text("degraded".into()));
        // the archive table,
        let table = monitor.archive_table();
        let col = table
            .columns
            .iter()
            .position(|c| c == "persistence")
            .unwrap();
        assert_eq!(table.rows[0][col], Cell::Text("degraded".into()));
        // and the HTML report.
        let html = report_html(&monitor, "fixw", &[]);
        assert!(html.contains("Degraded persistence"));
    }
}
