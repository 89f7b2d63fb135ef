//! `mantra` — the command-line front end.
//!
//! ```text
//! mantra monitor  [--seed N] [--native F] [--hours H] [--loss P] [--html FILE]
//!                 [--archive-dir DIR]
//! mantra health   [--seed N] [--fail P] [--truncate P] [--retries N]
//! mantra daemon   [--addr HOST:PORT] [--archive-dir DIR] [--cycles N]
//! mantra incident [--seed N]                 # replay Figure 9 and diagnose
//! mantra archive  info|replay|compact ...    # inspect on-disk archives
//! mantra mwatch   [--seed N] [--native F]    # map the internetwork
//! mantra mtrace   [--seed N] [--native F]    # trace to the busiest sender
//! mantra snmpwalk [--seed N] [--native F] [--oid OID]
//! ```
//!
//! Everything runs against the simulated internetwork (see DESIGN.md);
//! seeds make every run reproducible.

use std::io::{self, Write as _};
use std::process::ExitCode;

mod args;
mod cmd;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, mut rest)) = argv.split_first() else {
        eprintln!("{}", cmd::USAGE);
        return ExitCode::from(2);
    };
    // `archive` takes a subcommand word before its --flag options.
    let mut subcmd: Option<&str> = None;
    if cmd == "archive" {
        match rest.split_first() {
            Some((sub, r)) if !sub.starts_with("--") => {
                subcmd = Some(sub);
                rest = r;
            }
            _ => {
                eprintln!(
                    "error: archive needs a subcommand (info, replay or compact)\n\n{}",
                    cmd::USAGE
                );
                return ExitCode::from(2);
            }
        }
    }
    let allowed = match cmd::flags(cmd, subcmd) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = match args::Opts::parse(rest, allowed) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cmd::USAGE);
            return ExitCode::from(2);
        }
    };
    // Every command writes its stdout through this one writer.
    let mut out = io::stdout();
    let result = match cmd.as_str() {
        "monitor" => cmd::monitor(&opts, &mut out),
        "daemon" => cmd::daemon(&opts),
        "archive" => cmd::archive(subcmd.expect("parsed above"), &opts, &mut out),
        "health" => cmd::health(&opts, &mut out),
        "incident" => cmd::incident(&opts, &mut out),
        "mwatch" => cmd::mwatch(&opts, &mut out),
        "mtrace" => cmd::mtrace(&opts, &mut out),
        "snmpwalk" => cmd::snmpwalk(&opts, &mut out),
        "help" | "--help" | "-h" => writeln!(out, "{}", cmd::USAGE).map_err(Into::into),
        other => unreachable!("`cmd::flags` rejects command '{other}'"),
    };
    let Err(e) = result.and_then(|()| Ok(out.flush()?)) else {
        return ExitCode::SUCCESS;
    };
    match e.downcast_ref::<io::Error>() {
        // A reader that closed the pipe early (`| head -1`) has what it
        // asked for: a clean stop.
        Some(e) if e.kind() == io::ErrorKind::BrokenPipe => return ExitCode::SUCCESS,
        Some(e) => eprintln!("error: writing to stdout: {e}"),
        None => eprintln!("error: {e}"),
    }
    ExitCode::FAILURE
}
