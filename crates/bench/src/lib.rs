//! Shared driving code for the figure-regeneration binaries and the
//! Criterion benches.
//!
//! Every figure binary follows the same shape: build the scenario behind
//! the figure, drive the simulation and the Mantra monitor in lock-step at
//! the collection interval, then print the series the paper plots (CSV),
//! an ASCII rendering, and the headline statistics EXPERIMENTS.md records.
//!
//! Set `MANTRA_FAST=1` to shrink the simulated windows (~20× faster);
//! shapes survive, absolute spans shrink. The EXPERIMENTS.md numbers come
//! from full runs.

use mantra_core::{Monitor, MonitorConfig};
use mantra_net::{SimDuration, SimTime};
use mantra_sim::Scenario;

/// True when `MANTRA_FAST=1` (CI-scale runs).
pub fn fast_mode() -> bool {
    std::env::var("MANTRA_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The collection tick for the six-month scenarios: `MANTRA_TICK_MINS`
/// (default 15, the paper's interval). Coarser ticks run proportionally
/// faster with the same figure shapes.
pub fn paper_tick() -> SimDuration {
    let mins = std::env::var("MANTRA_TICK_MINS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|m| (1..=120).contains(m))
        .unwrap_or(15);
    SimDuration::mins(mins)
}

/// Drives `sc` from its current clock to `until`, running one monitor
/// cycle per interval. Returns the number of cycles run.
pub fn drive_until(sc: &mut Scenario, monitor: &mut Monitor, until: SimTime) -> usize {
    let mut cycles = 0;
    loop {
        let next = sc.sim.clock + monitor.cfg.interval;
        if next > until {
            break;
        }
        sc.sim.advance_to(next);
        monitor.run_cycle(&sc.sim, next);
        cycles += 1;
    }
    cycles
}

/// Drives for a duration from the current clock.
pub fn drive_for(sc: &mut Scenario, monitor: &mut Monitor, span: SimDuration) -> usize {
    let until = sc.sim.clock + span;
    drive_until(sc, monitor, until)
}

/// A monitor configured for a scenario's collection points at the
/// scenario's tick.
pub fn monitor_for(sc: &Scenario) -> Monitor {
    let mut names = vec![sc.sim.net.topo.router(sc.fixw).name.clone()];
    let ucsb = sc.sim.net.topo.router(sc.ucsb).name.clone();
    if names[0] != ucsb {
        names.push(ucsb);
    }
    Monitor::new(
        MonitorConfig {
            routers: names,
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        1,
    )
}

/// Prints a series' summary line: n, mean, median, stddev, min, max.
pub fn print_summary(s: &mantra_core::stats::Series) {
    println!(
        "  {:<28} n={:<5} mean={:<10.2} median={:<10.2} stddev={:<10.2} min={:<10.2} max={:.2}",
        s.name,
        s.len(),
        s.mean(),
        s.median(),
        s.stddev(),
        s.min().map(|m| m.1).unwrap_or(0.0),
        s.max().map(|m| m.1).unwrap_or(0.0),
    );
}

/// Standard figure-binary header.
pub fn banner(figure: &str, what: &str) {
    println!("==================================================================");
    println!("{figure}: {what}");
    println!(
        "mode: {}",
        if fast_mode() {
            "FAST (MANTRA_FAST=1, shortened window)"
        } else {
            "full paper window"
        }
    );
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_counts_cycles() {
        let mut sc = Scenario::transition_snapshot(77, 0.0);
        let mut monitor = monitor_for(&sc);
        let n = drive_for(&mut sc, &mut monitor, SimDuration::hours(3));
        assert_eq!(n, 12, "15-min interval over 3 hours");
        assert_eq!(monitor.cycles(), 12);
        assert_eq!(monitor.cfg.routers.len(), 2);
    }

    #[test]
    fn monitor_for_single_point_scenario() {
        let sc = Scenario::ucsb_injection_day(1);
        let monitor = monitor_for(&sc);
        assert_eq!(monitor.cfg.routers.len(), 1);
        assert_eq!(monitor.cfg.interval, SimDuration::mins(5));
    }
}
