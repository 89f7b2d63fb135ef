//! `perfbench` — Mantra's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload paper-week|fleet-ramp|daemon-query --seed N
//!           --seconds S --trace 0|1 [--mantra PATH] [--out DIR] [--rustc VERSION]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. Everything else the run measured,
//! with the run's metadata and (traced) the per-cycle series, goes to a
//! record file under `--out`. See `README.md` for what each metric is.

mod access;
mod cpu;
mod daemon;
mod http;
mod json;
mod manifest;
mod monitor;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{json_str, Metrics};

/// The CLI's default seed.
const DEFAULT_SEED: u64 = 1998;

/// A second seed, recorded with every result, on which a claimed gain
/// must also hold.
pub const HELD_OUT_SEED: u64 = 2001;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub mantra: PathBuf,
    pub out: PathBuf,
    pub rustc: String,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10,
            trace: false,
            mantra: PathBuf::from(".bench_build/release/mantra"),
            out: PathBuf::from(".bench_build/perfbench"),
            rustc: "unknown".into(),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone();
            let num = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = num(&value)?,
                "--seconds" => args.seconds = num(&value)?.max(1),
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got '{value}'")),
                    }
                }
                "--mantra" => args.mantra = PathBuf::from(value),
                "--out" => args.out = PathBuf::from(value),
                "--rustc" => args.rustc = value,
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        if !workloads::NAMES.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload: expected one of {}, got '{}'",
                workloads::NAMES.join(", "),
                args.workload
            ));
        }
        Ok(args)
    }
}

/// What a run hands back for reporting.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric measured: the promised end-to-end or per-layer ones
    /// and the workload's own views, for the record.
    pub metrics: Metrics,
    pub problems: Vec<String>,
    /// Workload sizes, as a JSON object.
    pub sizes: String,
    /// Deterministic counters, as a JSON object.
    pub counters: String,
    /// Per-cycle series (traced runs), as a JSON array.
    pub series: Option<String>,
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let outcome = match workloads::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let reported = manifest::select(&outcome.metrics, args.trace);
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {}, \"profile\": \"{}\", \"rustc\": {}, \"sizes\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        profile(),
        json_str(&args.rustc),
        outcome.sizes,
    );
    let record = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let problems: Vec<String> = outcome.problems.iter().map(|p| json_str(p)).collect();
    let body = format!(
        "{{\"meta\": {meta}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"counters\": {}, \"problems\": [{}], \"metrics\": {}, \"series\": {}}}\n",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.counters,
        problems.join(", "),
        outcome.metrics.to_json(),
        outcome.series.as_deref().unwrap_or("null"),
    );
    if let Err(e) = std::fs::write(&record, body) {
        eprintln!("perfbench: writing {}: {e}", record.display());
        return ExitCode::FAILURE;
    }

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  meta: {meta}");
    println!("  counters: {}", outcome.counters);
    for m in outcome.metrics.iter() {
        let promised = reported.get(&m.name).is_some();
        println!(
            "  {}{:<30} {:>16.4} {:<7} {} is better",
            if promised { "*" } else { " " },
            m.name,
            m.value,
            m.unit,
            m.better.as_str()
        );
    }
    for p in &outcome.problems {
        println!("  PROBLEM: {p}");
    }
    println!("  record: {}", record.display());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        reported.to_json()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_refuse() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv(
            "--workload paper-week --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--workload paper-week --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload paper-week --seed")).is_err());
        assert!(Args::parse(&argv("--workload paper-week --bogus 1")).is_err());
    }
}
