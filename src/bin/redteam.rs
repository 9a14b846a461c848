//! The `redteam` CLI: synthesize adversaries against a compiler and shrink
//! what breaks it to minimal replayable counterexamples.
//!
//! ```text
//! redteam --spec specs/redteam-v1-frontier.json [--out FILE] [--ce-dir DIR]
//!         [--threads N] [--shard I/OF] [--resume]
//! ```
//!
//! Reads a JSON [`RedTeamSpec`], resolves every target through the standard
//! graph / compiler / payload registries, and runs `targets × chains`
//! independent search **units** on the deterministic parallel engine.  Each
//! unit is a greedy or (1+1)-evolutionary chain over synthesized corruption
//! schedules; a chain that breaks its target hands the failure to the
//! shrinker, which minimizes rounds, edges and finally the graph itself
//! while re-executing every candidate.
//!
//! Outputs:
//!
//! * a trajectory JSONL (`--out`): one `kind:"redteam"` header line keyed by
//!   the spec fingerprint, then one `kind:"unit"` line per unit in global
//!   order — byte-identical at any `--threads`, and `--shard`/`--resume`
//!   accumulate byte-identically to a one-shot run;
//! * per counterexample (`--ce-dir`): a one-cell campaign spec
//!   (`<fp>-unit<N>.json`, replayable with the `campaign` CLI) and a replay
//!   trace (`<fp>-unit<N>-replay.jsonl`: per-round corruption events plus
//!   the failure verdict).
//!
//! **Stream contract**: stdout carries the executed unit JSONL lines only;
//! everything narrative goes to stderr, and `--quiet` silences it.

use mobile_congest::cli;
use mobile_congest::harness::report::{assemble, read_lines, write_atomic};
use mobile_congest::redteam::{
    counterexample_spec, header_line, replay_trace_jsonl, unit_line, RedTeam, RedTeamSpec,
    UnitOutcome,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: redteam --spec FILE [--out FILE] [--ce-dir DIR] [--threads N] [--shard I/OF]
               [--resume] [--dry-run] [--quiet]

  --spec FILE    red-team spec JSON (see specs/redteam-v1-frontier.json)
  --out FILE     trajectory JSONL (default: target/<spec-stem>-redteam.jsonl)
  --ce-dir DIR   write counterexample campaign specs + replay traces here
                 (default: target/<spec-stem>-ce)
  --threads N    worker threads (default: all cores; never changes results)
  --shard I/OF   run only units with index % OF == I (multi-machine fan-out)
  --resume       skip units already present in the trajectory file
  --dry-run      validate only: parse + resolve the spec, print the
                 fingerprint and unit counts, execute nothing
  --quiet        suppress stderr diagnostics (stdout and errors unaffected)";

#[cfg_attr(test, derive(Debug))]
struct Args {
    spec: PathBuf,
    out: Option<PathBuf>,
    ce_dir: Option<PathBuf>,
    common: cli::CommonArgs,
}

/// What a command line parses to: a run, or an explicit help request.
#[cfg_attr(test, derive(Debug))]
enum Parsed {
    Run(Args),
    Help,
}

/// Parse the arguments after the program name.  Takes the iterator as a
/// parameter (rather than reading `std::env::args` itself) so the unit tests
/// below can drive it with plain vectors.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut args = Args {
        spec: PathBuf::new(),
        out: None,
        ce_dir: None,
        common: cli::CommonArgs::default(),
    };
    while let Some(arg) = it.next() {
        if args.common.try_flag(&arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--spec" => args.spec = PathBuf::from(cli::need_value(&mut it, "--spec")?),
            "--out" => args.out = Some(PathBuf::from(cli::need_value(&mut it, "--out")?)),
            "--ce-dir" => args.ce_dir = Some(PathBuf::from(cli::need_value(&mut it, "--ce-dir")?)),
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(cli::unknown_flag(other)),
        }
    }
    if args.spec.as_os_str().is_empty() {
        return Err("--spec is required".to_string());
    }
    Ok(Parsed::Run(args))
}

/// Default trajectory path: `target/<spec-stem>-redteam.jsonl`.
fn default_out(spec_path: &Path) -> PathBuf {
    Path::new("target").join(format!("{}-redteam.jsonl", stem(spec_path)))
}

/// Default counterexample directory: `target/<spec-stem>-ce`.
fn default_ce_dir(spec_path: &Path) -> PathBuf {
    Path::new("target").join(format!("{}-ce", stem(spec_path)))
}

fn stem(spec_path: &Path) -> String {
    spec_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "redteam".to_string())
}

/// Write the counterexample artifacts of one unit: the replayable one-cell
/// campaign spec and the per-round replay trace.
fn write_counterexample(
    spec: &RedTeamSpec,
    team: &RedTeam,
    outcome: &UnitOutcome,
    ce_dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    let Some(ce) = &outcome.counterexample else {
        return Ok(Vec::new());
    };
    std::fs::create_dir_all(ce_dir)
        .map_err(|e| format!("cannot create ce dir {}: {e}", ce_dir.display()))?;
    let target = &spec.targets[outcome.target];
    let ce_spec = counterexample_spec(target, &ce.graph, &ce.adversary);
    let base = format!("{}-unit{}", spec.fingerprint(), outcome.unit);
    let spec_path = ce_dir.join(format!("{base}.json"));
    std::fs::write(&spec_path, ce_spec.to_json())
        .map_err(|e| format!("cannot write {}: {e}", spec_path.display()))?;
    let mut written = vec![spec_path];
    // Re-run the minimal cell with tracing on and export the per-round
    // corruption replay.  The resolved variant can only fail if the shrunk
    // graph stopped building, which the shrinker's oracle already rejected.
    let resolved = team
        .resolved_target(outcome.target)
        .with_graph(&ce.graph)
        .map_err(|e| format!("counterexample graph no longer resolves: {e}"))?;
    let report = resolved
        .run_traced(&ce.adversary)
        .map_err(|e| format!("counterexample replay failed to run: {e}"))?;
    let replay_path = ce_dir.join(format!("{base}-replay.jsonl"));
    std::fs::write(&replay_path, replay_trace_jsonl(&report))
        .map_err(|e| format!("cannot write {}: {e}", replay_path.display()))?;
    written.push(replay_path);
    Ok(written)
}

fn run() -> Result<(), String> {
    let args = match parse_args(std::env::args().skip(1))? {
        Parsed::Run(args) => args,
        Parsed::Help => {
            println!("{USAGE}");
            return Ok(());
        }
    };
    let diag = |msg: String| {
        if !args.common.quiet {
            eprintln!("{msg}");
        }
    };
    let spec_text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("cannot read spec {}: {e}", args.spec.display()))?;
    let spec = RedTeamSpec::from_json(&spec_text)
        .map_err(|e| format!("spec {}: {e}", args.spec.display()))?;
    let out = args.out.clone().unwrap_or_else(|| default_out(&args.spec));
    let ce_dir = args
        .ce_dir
        .clone()
        .unwrap_or_else(|| default_ce_dir(&args.spec));

    let mut team = RedTeam::from_spec(&spec)
        .map_err(|e| format!("spec {}: {e}", args.spec.display()))?
        .threads(args.common.threads);
    if let Some((i, of)) = args.common.shard {
        team = team.shard(i, of);
    }
    let wanted = team.unit_indices();

    if args.common.dry_run {
        diag(format!(
            "dry run: spec {} is valid (fingerprint {})",
            args.spec.display(),
            spec.fingerprint(),
        ));
        diag(format!(
            "  {} targets x {} chains = {} units{}; 0 executed",
            spec.targets.len(),
            spec.search.chains,
            team.unit_count(),
            match args.common.shard {
                Some((i, of)) => format!(", shard {i}/{of} -> {} units", wanted.len()),
                None => String::new(),
            },
        ));
        return Ok(());
    }

    // Unit-level resume: keep the lines already on disk, run only the rest.
    let kept: Vec<(usize, String)> = if args.common.resume && out.exists() {
        let text = std::fs::read_to_string(&out)
            .map_err(|e| format!("cannot read trajectory {}: {e}", out.display()))?;
        read_lines(&text, "redteam", "unit", &spec.fingerprint()).map_err(|e| {
            format!(
                "trajectory {}: {e}; delete it or pick another --out",
                out.display()
            )
        })?
    } else {
        Vec::new()
    };
    let present: std::collections::HashSet<usize> = kept.iter().map(|(i, _)| *i).collect();
    let missing: Vec<usize> = wanted
        .iter()
        .copied()
        .filter(|i| !present.contains(i))
        .collect();

    diag(format!(
        "redteam {} (fingerprint {}): {} units{}{}",
        args.spec.display(),
        spec.fingerprint(),
        team.unit_count(),
        match args.common.shard {
            Some((i, of)) => format!(", shard {i}/{of} -> {} units", wanted.len()),
            None => String::new(),
        },
        if args.common.resume {
            format!(
                ", resume: {} units to run ({} already present)",
                missing.len(),
                present.len()
            )
        } else {
            String::new()
        },
    ));

    if missing.is_empty() {
        diag(format!(
            "nothing to do: trajectory {} already covers every unit",
            out.display()
        ));
        return Ok(());
    }

    let t0 = Instant::now();
    let outcomes = team.run_units(&missing);
    let wall = t0.elapsed().as_secs_f64();
    let found = outcomes
        .iter()
        .filter(|o| o.counterexample.is_some())
        .count();
    diag(format!(
        "{} units executed in {wall:.2}s; {found} counterexample(s) found",
        outcomes.len(),
    ));

    // The machine-parseable product of this run: one unit line per executed
    // unit, on stdout (the same lines the trajectory file gets).
    let fresh: Vec<(usize, String)> = outcomes
        .iter()
        .map(|o| (o.unit, unit_line(&spec, o)))
        .collect();
    for (_, line) in &fresh {
        println!("{line}");
    }

    // Counterexample artifacts: replayable spec + replay trace per failure.
    for outcome in &outcomes {
        for path in write_counterexample(&spec, &team, outcome, &ce_dir)? {
            diag(format!("wrote {}", path.display()));
        }
    }

    // Crash-safe trajectory rewrite: header + union of kept and fresh unit
    // lines in global index order.  A kill mid-write leaves either the old
    // file or the new one, so completed units always survive.
    let mut lines = kept;
    lines.extend(fresh);
    let text = assemble(&header_line(&spec), &lines);
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    write_atomic(&out, &text)
        .map_err(|e| format!("cannot write trajectory {}: {e}", out.display()))?;
    let written = text.lines().count();
    diag(format!(
        "wrote {written} trajectory lines ({} units) to {}",
        written - 1,
        out.display()
    ));
    Ok(())
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
    fn unknown_flags_are_reported_by_name() {
        let err = parse(&["--spec", "s.json", "--frobnicate"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "got: {err}");
    }

    #[test]
    fn spec_is_required() {
        assert!(parse(&["--resume"]).unwrap_err().contains("--spec"));
    }

    #[test]
    fn all_flags_parse() {
        let parsed = parse(&[
            "--spec",
            "s.json",
            "--out",
            "t.jsonl",
            "--ce-dir",
            "ce",
            "--threads",
            "3",
            "--shard",
            "1/4",
            "--resume",
            "--dry-run",
            "--quiet",
        ])
        .unwrap();
        let Parsed::Run(args) = parsed else {
            panic!("expected a run");
        };
        assert_eq!(args.common.threads, 3);
        assert_eq!(args.common.shard, Some((1, 4)));
        assert!(args.common.resume && args.common.dry_run && args.common.quiet);
        assert_eq!(args.ce_dir.as_deref(), Some(Path::new("ce")));
    }

    #[test]
    fn bad_shard_forms_are_rejected() {
        assert!(parse(&["--spec", "s", "--shard", "3"]).is_err());
        assert!(parse(&["--spec", "s", "--shard", "4/4"]).is_err());
        assert!(parse(&["--spec", "s", "--shard", "x/2"]).is_err());
    }

    #[test]
    fn default_paths_derive_from_spec_stem() {
        let spec = Path::new("specs/redteam-v1-frontier.json");
        assert_eq!(
            default_out(spec),
            Path::new("target/redteam-v1-frontier-redteam.jsonl")
        );
        assert_eq!(
            default_ce_dir(spec),
            Path::new("target/redteam-v1-frontier-ce")
        );
    }
}
