//! The `campaignd` server binary: a durable campaign job queue behind a
//! std-only HTTP API.
//!
//! ```text
//! campaignd --data-dir DIR [--addr HOST:PORT] [--threads N] [--quiet]
//! ```
//!
//! On startup the store under `--data-dir` is replayed: completed cells are
//! loaded (never re-executed), unfinished jobs are requeued with exactly
//! their missing cells.  The resolved listen address is printed to stdout as
//! a single `kind:"listening"` JSON line — machine-parseable, so scripts
//! binding port `0` can discover the port — and everything narrative goes
//! to stderr (`--quiet` silences it).

use mobile_congest::campaignd::server::{start, Config};
use mobile_congest::cli;
use mobile_congest::harness::json;
use std::process::ExitCode;

const USAGE: &str = "usage: campaignd --data-dir DIR [--addr HOST:PORT] [--threads N] [--quiet]

  --data-dir DIR    store root (created if missing; replayed on startup)
  --addr HOST:PORT  listen address (default 127.0.0.1:7070; port 0 picks one)
  --threads N       campaign worker threads (default: all cores)
  --quiet           suppress stderr diagnostics";

#[cfg_attr(test, derive(Debug))]
struct Args {
    data_dir: std::path::PathBuf,
    addr: String,
    common: cli::CommonArgs,
}

/// The slice of the shared flag surface this daemon takes: sharding and
/// resume semantics live in the store, not on the command line.
const COMMON: &[&str] = &["--threads", "--quiet"];

/// What a command line parses to: a server run, or an explicit help request.
#[cfg_attr(test, derive(Debug))]
enum Parsed {
    Run(Args),
    Help,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut args = Args {
        data_dir: std::path::PathBuf::new(),
        addr: "127.0.0.1:7070".to_string(),
        common: cli::CommonArgs::default(),
    };
    while let Some(arg) = it.next() {
        if args.common.try_flag_among(&arg, &mut it, COMMON)? {
            continue;
        }
        match arg.as_str() {
            "--data-dir" => {
                args.data_dir = std::path::PathBuf::from(cli::need_value(&mut it, "--data-dir")?);
            }
            "--addr" => args.addr = cli::need_value(&mut it, "--addr")?,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(cli::unknown_flag(other)),
        }
    }
    if args.data_dir.as_os_str().is_empty() {
        return Err("--data-dir is required".to_string());
    }
    Ok(Parsed::Run(args))
}

fn run() -> Result<(), String> {
    let args = match parse_args(std::env::args().skip(1))? {
        Parsed::Run(args) => args,
        Parsed::Help => {
            println!("{USAGE}");
            return Ok(());
        }
    };
    let mut config = Config::new(&args.data_dir);
    config.addr = args.addr;
    config.quiet = args.common.quiet;
    if args.common.threads > 0 {
        config.workers = args.common.threads;
    }
    let handle = start(config)?;
    // The one stdout line: lets scripts that bound port 0 find the server.
    let listening = json::object(|w| {
        w.str("kind", "listening")
            .str("addr", &handle.addr().to_string());
    });
    println!("{listening}");
    // The accept loop and workers are daemon threads; park this one forever.
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Parsed, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn all_flags_parse() {
        let Parsed::Run(args) = parse(&[
            "--data-dir",
            "/tmp/d",
            "--addr",
            "0.0.0.0:9999",
            "--threads",
            "2",
            "--quiet",
        ])
        .unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(args.data_dir, std::path::PathBuf::from("/tmp/d"));
        assert_eq!(args.addr, "0.0.0.0:9999");
        assert_eq!(args.common.threads, 2);
        assert!(args.common.quiet);
    }

    #[test]
    fn the_common_flags_outside_this_daemons_surface_are_unknown() {
        // --shard/--resume/--dry-run are shared flags elsewhere, but this
        // binary does not take them — they must fail as unknown, not parse.
        for flag in ["--shard", "--resume", "--dry-run"] {
            let err = parse(&["--data-dir", "d", flag, "1/2"]).unwrap_err();
            assert_eq!(err, format!("unknown flag `{flag}`"));
        }
    }

    #[test]
    fn data_dir_is_required_and_help_short_circuits() {
        assert!(parse(&[]).unwrap_err().contains("--data-dir"));
        assert!(matches!(parse(&["--help"]), Ok(Parsed::Help)));
        assert!(matches!(parse(&["-h", "--junk"]), Ok(Parsed::Help)));
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(parse(&["--data-dir", "d", "--frobnicate"])
            .unwrap_err()
            .contains("`--frobnicate`"));
        assert_eq!(
            parse(&["--data-dir", "d", "--threads", "two"]).unwrap_err(),
            "--threads needs a number"
        );
        assert_eq!(parse(&["--addr"]).unwrap_err(), "--addr needs a value");
    }
}
