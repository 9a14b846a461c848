//! The `campaign` CLI: run a declarative campaign spec end to end.
//!
//! ```text
//! campaign --spec specs/e16-small.json [--out FILE] [--threads N]
//!          [--shard I/OF] [--resume]
//! ```
//!
//! Reads a JSON [`CampaignSpec`], resolves it through the graph / adversary /
//! compiler registries (`Campaign::from_spec`), runs the grid on the
//! deterministic parallel engine, prints the summary table and writes a
//! trajectory JSONL file: one `kind:"campaign"` header line (keyed by the
//! spec's stable fingerprint) followed by one `kind:"cell"` line per cell in
//! global enumeration order.
//!
//! The trajectory file is the run's durable log: each chunk of cells
//! ([`Campaign::chunks`], the chunk rule `campaignd` runs jobs by) is
//! appended as soon as it has run, the first one together with the header
//! when the run starts the file afresh, and fsync'd while the next one runs,
//! so a killed run loses at most the chunk in flight.  Only each cell's flat record outlives its
//! chunk, for the stdout summaries; the run reports, traces included, are
//! dropped chunk by chunk.
//!
//! `--resume` makes the run **cell-level incremental**: cells whose lines are
//! already present in the trajectory file are skipped and only missing cells
//! execute, appended like any others; when that leaves the file out of index
//! order it is rewritten once at the end, in order, so a resumed file is
//! byte-identical to a one-shot one.  A trajectory written for a different
//! spec (fingerprint mismatch) is refused rather than silently mixed, and a
//! line for a cell outside the grid is dropped.  `--shard I/OF` restricts
//! the run to the cells with `index % OF == I`; shard outputs merge cleanly
//! because every cell line depends only on the cell's global index.  The
//! file cycle is `harness::report::resume_trajectory`, shared with the
//! `redteam` CLI.
//!
//! **Stream contract**: stdout carries machine-parseable output only (the
//! `kind:"summary"` JSONL lines of the executed batch); everything narrative
//! — progress, tables, timings — goes to stderr, and `--quiet` silences it.
//! `--trace-dir DIR` turns on deterministic event tracing
//! ([`obs::TraceSpec::ring`]): each executed cell's event stream is written
//! to `DIR/<fingerprint>-cell<index>.jsonl` and a per-phase wall-time table
//! is printed to stderr.

use mobile_congest::cli;
use mobile_congest::harness::campaign::{summary_json, summary_table, GroupProfiles, GroupSummary};
use mobile_congest::harness::report::{resume_trajectory, summaries_of, trajectory_header};
use mobile_congest::harness::{Campaign, CampaignCell, CampaignSpec, CellRecord, RecordOutcome};
use mobile_congest::obs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: campaign --spec FILE [--out FILE] [--threads N] [--shard I/OF] [--resume] [--dry-run]
                [--trace-dir DIR] [--no-cache] [--quiet]

  --spec FILE      campaign spec JSON (see specs/e16-small.json)
  --out FILE       trajectory JSONL (default: target/<spec-stem>-trajectory.jsonl)
  --threads N      worker threads (default: all cores; never changes results)
  --shard I/OF     run only cells with index % OF == I (multi-machine fan-out)
  --resume         skip cells already present in the trajectory file
  --dry-run        validate only: parse + resolve the spec, print the
                   fingerprint and cell counts, execute nothing
  --trace-dir DIR  record deterministic event traces: one
                   DIR/<fingerprint>-cell<index>.jsonl per executed cell,
                   plus a per-phase wall-time profile table on stderr
  --no-cache       prepare compile artifacts per cell instead of once per
                   (graph, compiler) pair (results identical; for measurement)
  --quiet          suppress stderr diagnostics (stdout and errors unaffected)";

#[cfg_attr(test, derive(Debug))]
struct Args {
    spec: PathBuf,
    out: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    no_cache: bool,
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
        trace_dir: None,
        no_cache: false,
        common: cli::CommonArgs::default(),
    };
    while let Some(arg) = it.next() {
        if args.common.try_flag(&arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--spec" => args.spec = PathBuf::from(cli::need_value(&mut it, "--spec")?),
            "--out" => args.out = Some(PathBuf::from(cli::need_value(&mut it, "--out")?)),
            "--trace-dir" => {
                args.trace_dir = Some(PathBuf::from(cli::need_value(&mut it, "--trace-dir")?));
            }
            "--no-cache" => args.no_cache = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(cli::unknown_flag(other)),
        }
    }
    if args.spec.as_os_str().is_empty() {
        return Err("--spec is required".to_string());
    }
    Ok(Parsed::Run(args))
}

/// Default trajectory path: `target/<spec-stem>-trajectory.jsonl`.
fn default_out(spec_path: &Path) -> PathBuf {
    let stem = spec_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "campaign".to_string());
    Path::new("target").join(format!("{stem}-trajectory.jsonl"))
}

fn run() -> Result<(), String> {
    let args = match parse_args(std::env::args().skip(1))? {
        Parsed::Run(args) => args,
        Parsed::Help => {
            println!("{USAGE}");
            return Ok(());
        }
    };
    // Diagnostics go to stderr so stdout stays machine-parseable; `--quiet`
    // silences them without touching stdout or error reporting.
    let diag = |msg: String| {
        if !args.common.quiet {
            eprintln!("{msg}");
        }
    };
    diag(cli::backends_line());
    let spec_text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("cannot read spec {}: {e}", args.spec.display()))?;
    let spec = CampaignSpec::from_json(&spec_text)
        .map_err(|e| format!("spec {}: {e}", args.spec.display()))?;
    let out = args.out.clone().unwrap_or_else(|| default_out(&args.spec));

    let mut campaign = Campaign::from_spec(&spec)
        .map_err(|e| format!("spec {}: {e}", args.spec.display()))?
        .threads(args.common.threads);
    if let Some((i, of)) = args.common.shard {
        campaign = campaign.shard(i, of);
    }
    if args.trace_dir.is_some() {
        campaign = campaign.trace(obs::TraceSpec::ring());
    }
    if args.no_cache {
        campaign = campaign.without_artifact_cache();
    }
    let wanted = campaign.cell_indices();

    // Validate-only mode: the spec parsed and resolved through every
    // registry, so report what a real run would cover and stop here.
    if args.common.dry_run {
        diag(format!(
            "dry run: spec {} is valid (fingerprint {})",
            args.spec.display(),
            spec.fingerprint(),
        ));
        diag(format!(
            "  {} cells total{}; 0 executed",
            spec.cell_count(),
            match args.common.shard {
                Some((i, of)) => format!(", shard {i}/{of} -> {} cells", wanted.len()),
                None => String::new(),
            },
        ));
        return Ok(());
    }

    // Cell-level resume: keep the lines already on disk, run only the rest,
    // chunk by chunk, each appended to the file once it has run (cell lines
    // are pure functions of their cell, so a resumed file is byte-identical
    // to a from-scratch one).
    let header = trajectory_header(&spec);
    let mut log = resume_trajectory(
        &out,
        &header,
        "cell",
        spec.cell_count(),
        &wanted,
        args.common.resume,
    )?;
    let missing = log.missing().to_vec();
    diag(format!(
        "campaign {} (fingerprint {}): {} cells{}{}",
        args.spec.display(),
        spec.fingerprint(),
        spec.cell_count(),
        match args.common.shard {
            Some((i, of)) => format!(", shard {i}/{of} -> {} cells", wanted.len()),
            None => String::new(),
        },
        if args.common.resume {
            format!(
                ", resume: {} cells to run ({} already present)",
                missing.len(),
                log.present(),
            )
        } else {
            String::new()
        },
    ));
    if missing.is_empty() {
        diag(format!(
            "nothing to do: trajectory {} already covers every cell",
            out.display()
        ));
    } else {
        if let Some(trace_dir) = &args.trace_dir {
            std::fs::create_dir_all(trace_dir)
                .map_err(|e| format!("cannot create trace dir {}: {e}", trace_dir.display()))?;
        }
        let t0 = Instant::now();
        // Each executed cell is flattened once: its record gives the chunk's
        // trajectory lines and, kept, the stdout summaries.
        let mut records: Vec<CellRecord> = Vec::with_capacity(missing.len());
        let mut profiles = GroupProfiles::default();
        let (mut agree, mut traces) = (true, 0usize);
        for chunk in campaign.chunks(&missing) {
            let report = campaign.run_cells(chunk);
            agree &= report.all_protected_cells_agree();
            if let Some(trace_dir) = &args.trace_dir {
                traces += write_traces(trace_dir, &spec.fingerprint(), &report.cells)?;
                profiles.add(&report.cells);
            }
            let fresh: Vec<CellRecord> = report.cells.iter().map(CellRecord::of).collect();
            let lines: Vec<(usize, String)> =
                fresh.iter().map(|r| (r.index, r.cell_line())).collect();
            log.append(&lines)?;
            records.extend(fresh);
        }
        let wall = t0.elapsed().as_secs_f64();
        let mut summaries = summaries_of(&records);
        profiles.lay_over(&mut summaries);
        if !args.common.quiet {
            eprint!("{}", summary_table(&summaries));
        }
        let skipped = records
            .iter()
            .filter(|r| matches!(r.outcome, RecordOutcome::Skipped { .. }))
            .count();
        diag(format!(
            "{} cells executed ({skipped} skipped by validation) in {wall:.2}s; protected cells agree: {agree}",
            records.len(),
        ));
        // Cache effectiveness, for humans and for
        // `tests/cli.rs::campaign_resume_rewrites_the_one_shot_bytes_over_a_torn_half`
        // (which reads this stderr line).  Traced runs bypass the cache, so a zero
        // lookup count there is expected, not a bug.
        if let Some(cache) = campaign.artifact_cache_handle() {
            diag(format!(
            "artifact cache: {} hits, {} misses over {} (graph, compiler) pairs (hit rate {:.2})",
            cache.hits(),
            cache.misses(),
            cache.len(),
            cache.hit_rate(),
        ));
        }
        // The machine-parseable product of this run: one summary line per grid
        // cell, on stdout.
        for s in &summaries {
            println!("{}", summary_json(s));
        }
        if let Some(trace_dir) = &args.trace_dir {
            diag(format!(
                "wrote {traces} trace files to {}",
                trace_dir.display()
            ));
            if !args.common.quiet {
                eprint!("{}", profile_table(&summaries));
            }
        }
    }
    if let Some(written) = log.finish()? {
        diag(format!(
            "wrote {written} trajectory lines ({} cells) to {}",
            written - 1,
            out.display()
        ));
    }
    Ok(())
}

/// Event traces: one JSONL stream per executed cell of `cells`, keyed by the
/// spec fingerprint so files from different campaigns never collide.
/// Returns how many files it wrote.
fn write_traces(
    trace_dir: &Path,
    fingerprint: &str,
    cells: &[CampaignCell],
) -> Result<usize, String> {
    let mut written = 0;
    for cell in cells {
        let Ok(cell_report) = &cell.outcome else {
            continue;
        };
        let path = trace_dir.join(format!("{fingerprint}-cell{}.jsonl", cell.index));
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        cell_report
            .trace
            .write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        written += 1;
    }
    Ok(written)
}

/// The per-grid-cell wall-time profile table (`--trace-dir` runs only).
fn profile_table(summaries: &[GroupSummary]) -> String {
    let mut out = format!(
        "{:<12} {:<22} {:<22} {:<14} {:>7} {:>10}\n",
        "graph", "adversary", "compiler", "phase", "spans", "ms"
    );
    for s in summaries {
        for (phase, spans, ms) in &s.profile {
            out.push_str(&format!(
                "{:<12} {:<22} {:<22} {:<14} {:>7} {:>10.2}\n",
                s.graph, s.adversary, s.compiler, phase, spans, ms
            ));
        }
    }
    out
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
        assert!(
            err.contains("--frobnicate"),
            "error must name the offending flag, got: {err}"
        );
        let err = parse(&["-x"]).unwrap_err();
        assert!(err.contains("`-x`"), "got: {err}");
    }

    #[test]
    fn dry_run_and_the_other_flags_parse() {
        let Parsed::Run(args) = parse(&[
            "--spec",
            "s.json",
            "--threads",
            "3",
            "--shard",
            "1/4",
            "--resume",
            "--dry-run",
            "--trace-dir",
            "target/traces",
            "--no-cache",
            "--quiet",
        ])
        .unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(args.spec, PathBuf::from("s.json"));
        assert_eq!(args.common.threads, 3);
        assert_eq!(args.common.shard, Some((1, 4)));
        assert!(args.common.resume);
        assert!(args.common.dry_run);
        assert_eq!(args.trace_dir, Some(PathBuf::from("target/traces")));
        assert!(args.no_cache);
        assert!(args.common.quiet);
    }

    #[test]
    fn trace_dir_needs_a_value() {
        assert!(parse(&["--spec", "s", "--trace-dir"])
            .unwrap_err()
            .contains("--trace-dir"));
    }

    #[test]
    fn spec_is_required_and_help_short_circuits() {
        assert!(parse(&[]).unwrap_err().contains("--spec"));
        assert!(matches!(parse(&["--help"]), Ok(Parsed::Help)));
        assert!(matches!(
            parse(&["-h", "--definitely-not-a-flag"]),
            Ok(Parsed::Help)
        ));
    }

    #[test]
    fn malformed_shards_are_rejected() {
        assert!(parse(&["--spec", "s", "--shard", "4"])
            .unwrap_err()
            .contains("I/OF"));
        assert!(parse(&["--spec", "s", "--shard", "4/4"])
            .unwrap_err()
            .contains("out of range"));
        assert!(parse(&["--spec", "s", "--shard", "0/0"])
            .unwrap_err()
            .contains("out of range"));
    }
}
