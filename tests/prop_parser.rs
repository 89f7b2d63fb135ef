//! Robustness properties of the capture/parse pipeline: whatever a
//! half-broken terminal session delivers, the processor never panics,
//! never fabricates rows, and always accounts for every line.

use proptest::prelude::*;

use mantra::core::collector::preprocess;
use mantra::core::processor::process;
use mantra::core::ParallelAccess;
use mantra::net::{SimDuration, SimTime};
use mantra::router_cli::TableKind;
use mantra::sim::Scenario;

/// Real rendered dumps for mutation, captured once.
fn real_dumps() -> Vec<(TableKind, String)> {
    let mut sc = Scenario::transition_snapshot(3, 0.5);
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a real dump at any byte never panics and never yields
    /// more parsed rows than the intact dump.
    #[test]
    fn truncation_is_safe(cut_permille in 0u32..1000, which in 0usize..10) {
        let dumps = real_dumps();
        let (kind, raw) = &dumps[which % dumps.len()];
        let cut = (raw.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let cut = (0..=cut).rev().find(|i| raw.is_char_boundary(*i)).unwrap_or(0);
        let now = SimTime::from_ymd(1999, 3, 1);
        let full_cap = preprocess("fixw", *kind, raw, now);
        let cut_cap = preprocess("fixw", *kind, &raw[..cut], now);
        let (full_tables, full_stats) = process(&[full_cap]);
        let (cut_tables, cut_stats) = process(&[cut_cap]);
        prop_assert!(cut_stats.parsed <= full_stats.parsed + 1);
        prop_assert!(cut_tables.pairs.len() <= full_tables.pairs.len());
        prop_assert!(cut_tables.routes.len() <= full_tables.routes.len() + 1);
    }

    /// Injecting garbage lines anywhere is counted as malformed/skipped,
    /// never parsed into rows, and never a panic.
    #[test]
    fn garbage_lines_are_quarantined(
        garbage in proptest::collection::vec("[ -~]{0,60}", 1..8),
        pos_permille in 0u32..1000,
        which in 0usize..10,
    ) {
        let dumps = real_dumps();
        let (kind, raw) = &dumps[which % dumps.len()];
        let lines: Vec<&str> = raw.lines().collect();
        let pos = (lines.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let mut mutated: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        for (i, g) in garbage.iter().enumerate() {
            mutated.insert((pos + i).min(mutated.len()), g.clone());
        }
        let now = SimTime::from_ymd(1999, 3, 1);
        let cap = preprocess("fixw", *kind, &mutated.join("\n"), now);
        let (_tables, stats) = process(&[cap]);
        let clean = preprocess("fixw", *kind, raw, now);
        let (_, clean_stats) = process(&[clean]);
        // Garbage can at worst be misparsed as one extra row per line of
        // garbage in line-per-row formats — in practice it lands in
        // malformed/skipped. It must never subtract parsed rows.
        prop_assert!(stats.parsed + stats.malformed + stats.skipped
            >= clean_stats.parsed + clean_stats.malformed + clean_stats.skipped);
        prop_assert!(stats.parsed <= clean_stats.parsed + garbage.len());
    }

    /// The preprocessor is idempotent: cleaning cleaned output changes
    /// nothing.
    #[test]
    fn preprocess_is_idempotent(which in 0usize..10) {
        let dumps = real_dumps();
        let (kind, raw) = &dumps[which % dumps.len()];
        let now = SimTime::from_ymd(1999, 3, 1);
        let once = preprocess("fixw", *kind, raw, now);
        let again = preprocess("fixw", *kind, &once.text_lines().join("\n"), now);
        prop_assert_eq!(once.text_lines(), again.text_lines());
    }
}
