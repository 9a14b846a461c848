//! Benchmark v1 of the mobile-congest reproduction.
//!
//! ```text
//! bench run [--workload W]… [--seed S] [--seconds N] [--trace 0|1] [--quick]
//!           [--out FILE] [--bless]
//! bench compare A.json B.json
//! ```
//!
//! `run` builds the release `campaign`/`campaignd` binaries, generates the
//! workload specs from the seed, drives the binaries from outside as child
//! processes, checks their outputs and prints every metric by name with its
//! unit; without `--trace` it then replays each workload in-process with
//! spans around the calls into each layer and runs the per-layer probes.
//! With exactly one `--workload` and a `--trace` value the last stdout line
//! is the driver's result object.  See `bench/README.md`.

mod child;
mod cli_run;
mod env;
mod metrics;
mod probes;
mod results;
mod run;
mod served;
mod spans;
mod speed;
mod stats;
mod workloads;

use mobile_congest::cli::{need_value, unknown_flag};
use std::process::ExitCode;

/// How long one run measures a workload by default; `BENCHMARK.json` repeats
/// it as `run_seconds`.
pub const RUN_SECONDS: u64 = 20;

const USAGE: &str =
    "usage: bench run [--workload W]... [--seed S] [--seconds N] [--trace 0|1] [--quick]
                 [--out FILE] [--bless]
       bench compare A.json B.json

  --workload W   byz-zoo | secure-gossip | cold-pairs | served-small
                 (repeatable; default: all four, trials interleaved)
  --seed S       workload seed (default 2024, the seed with golden fingerprints)
  --seconds N    measured time per workload (default 20; at least 3 trials)
  --trace 0|1    0: end-to-end metrics only; 1: per-layer metrics only
                 (default: both, end to end first)
  --quick        smoke mode: 1 trial at 1/10 size
  --out FILE     results file (default <target>/bench/results.json)
  --bless        rewrite bench/golden/fingerprints.json from this run
                 (default seed only) instead of checking against it";

fn parse_run(mut it: impl Iterator<Item = String>) -> Result<run::Options, String> {
    let mut opts = run::Options {
        workloads: Vec::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: run::Trace::Both,
        quick: false,
        bless: false,
        out: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = need_value(&mut it, "--workload")?;
                let w =
                    workloads::find(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                if !opts.workloads.iter().any(|have| have.name == w.name) {
                    opts.workloads.push(w);
                }
            }
            "--seed" => {
                opts.seed = need_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = need_value(&mut it, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                opts.trace = match need_value(&mut it, "--trace")?.as_str() {
                    "0" => run::Trace::Off,
                    "1" => run::Trace::Only,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--quick" => opts.quick = true,
            "--bless" => opts.bless = true,
            "--out" => opts.out = Some(need_value(&mut it, "--out")?.into()),
            other => return Err(unknown_flag(other)),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = workloads::WORKLOADS.to_vec();
    }
    Ok(opts)
}

fn compare(mut it: impl Iterator<Item = String>) -> Result<bool, String> {
    let (Some(a), Some(b), None) = (it.next(), it.next(), it.next()) else {
        return Err("compare needs exactly two results files".to_string());
    };
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| results::load(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, failed) = results::compare(&load(&a)?, &load(&b)?);
    print!("{table}");
    Ok(failed)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let outcome = match args.next().as_deref() {
        Some("run") => parse_run(args)
            .and_then(|opts| run::run(&opts))
            .map(|()| false),
        Some("compare") => compare(args),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(false)
        }
        _ => Err("expected `run` or `compare`".to_string()),
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(message) => {
            // No metrics are printed on any failure: a wrong output is not a
            // slow one.
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<run::Options, String> {
        parse_run(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_flags_parse() {
        let opts = parse(&[
            "--workload",
            "cold-pairs",
            "--seed",
            "77",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(opts.workloads.len(), 1);
        assert_eq!(opts.workloads[0].name, "cold-pairs");
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace),
            (77, 10.0, run::Trace::Only)
        );
        assert_eq!(parse(&["--trace", "0"]).unwrap().trace, run::Trace::Off);
    }

    #[test]
    fn defaults_are_all_workloads_both_passes_and_the_golden_seed() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.workloads.len(), 4);
        assert_eq!(opts.trace, run::Trace::Both);
        assert_eq!(opts.seed, workloads::DEFAULT_SEED);
        assert_eq!(opts.seconds, RUN_SECONDS as f64);
        assert!(!opts.quick && !opts.bless);
    }

    #[test]
    fn bad_flags_are_named() {
        assert!(parse(&["--workload", "nope"])
            .unwrap_err()
            .contains("`nope`"));
        assert!(parse(&["--trace", "2"]).unwrap_err().contains("0 or 1"));
        assert!(parse(&["--seconds", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("`--frobnicate`"));
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
    }
}
