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
    let result = match cmd.as_str() {
        "monitor" => cmd::monitor(&opts),
        "daemon" => cmd::daemon(&opts),
        "archive" => cmd::archive(subcmd.expect("parsed above"), &opts),
        "health" => cmd::health(&opts),
        "incident" => cmd::incident(&opts),
        "mwatch" => cmd::mwatch(&opts),
        "mtrace" => cmd::mtrace(&opts),
        "snmpwalk" => cmd::snmpwalk(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", cmd::USAGE);
            Ok(())
        }
        other => unreachable!("`cmd::flags` rejects command '{other}'"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
