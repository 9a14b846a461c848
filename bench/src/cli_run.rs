//! CLI workloads: generated spec files driven through the release `campaign`
//! binary as child processes, the trajectory checks, and the in-process
//! traced replay of the same specs.

use crate::child::{self, Usage};
use crate::spans::Recorder;
use crate::workloads;
use mobile_congest::harness::campaign::{cell_json, summary_json};
use mobile_congest::harness::json::{self, JsonValue};
use mobile_congest::harness::report::trajectory_header;
use mobile_congest::harness::{Campaign, CampaignReport, CampaignSpec};
use mobile_congest::scenario::CompilerDef;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What the bench reads off one `kind:"cell"` trajectory line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellLine {
    pub index: usize,
    pub compiler: String,
    pub status: String,
    /// Present on `status:"ok"` lines only.
    pub network_rounds: Option<u64>,
}

/// Parse one trajectory line; `None` for the header and anything that is
/// not a well-formed cell line.
pub fn parse_cell_line(line: &str) -> Option<CellLine> {
    let v = json::parse(line).ok()?;
    if v.get("kind").and_then(JsonValue::as_str) != Some("cell") {
        return None;
    }
    Some(CellLine {
        index: v.get("index").and_then(JsonValue::as_usize)?,
        compiler: v.get("compiler").and_then(JsonValue::as_str)?.to_string(),
        status: v.get("status").and_then(JsonValue::as_str)?.to_string(),
        network_rounds: v.get("network_rounds").and_then(JsonValue::as_u64),
    })
}

/// Exact counts over one trajectory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrajectoryStats {
    /// Cell lines present.
    pub cells: usize,
    /// Cells that ran (`ok` or `failed`), i.e. not skipped by validation.
    pub executed: usize,
    pub failed: usize,
    /// Σ `network_rounds` over the cell lines — simulated rounds, exact.
    pub network_rounds: u64,
    /// FNV-1a of the trajectory bytes.
    pub fingerprint: String,
}

impl TrajectoryStats {
    pub fn add(&mut self, other: &TrajectoryStats) {
        self.cells += other.cells;
        self.executed += other.executed;
        self.failed += other.failed;
        self.network_rounds += other.network_rounds;
    }
}

/// Count a trajectory: a `kind:"campaign"` header announcing `cells`, then
/// exactly that many cell lines.
pub fn trajectory_stats(text: &str) -> Result<TrajectoryStats, String> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .and_then(|l| json::parse(l).ok())
        .filter(|h| h.get("kind").and_then(JsonValue::as_str) == Some("campaign"))
        .ok_or("trajectory has no campaign header")?;
    let announced = header
        .get("cells")
        .and_then(JsonValue::as_usize)
        .ok_or("trajectory header has no cell count")?;
    let mut stats = TrajectoryStats {
        fingerprint: json::fnv1a_hex(text.bytes()),
        ..TrajectoryStats::default()
    };
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let cell =
            parse_cell_line(line).ok_or_else(|| format!("malformed trajectory line: {line}"))?;
        stats.cells += 1;
        match cell.status.as_str() {
            "skipped" => {}
            "ok" => stats.executed += 1,
            _ => {
                stats.executed += 1;
                stats.failed += 1;
            }
        }
        stats.network_rounds += cell.network_rounds.unwrap_or(0);
    }
    if stats.cells != announced {
        return Err(format!(
            "trajectory holds {} cell lines, its header announces {announced}",
            stats.cells
        ));
    }
    Ok(stats)
}

/// One generated spec on disk.
pub struct SpecFile {
    pub stem: String,
    pub spec: CampaignSpec,
    pub path: PathBuf,
    /// Where the child writes its trajectory.
    pub out: PathBuf,
}

/// Write one generated spec to `<dir>/specs/<stem>.json`.
pub fn write_spec(dir: &Path, stem: String, spec: CampaignSpec) -> Result<SpecFile, String> {
    let path = dir.join("specs").join(format!("{stem}.json"));
    std::fs::create_dir_all(dir.join("specs"))
        .and_then(|()| std::fs::write(&path, spec.to_json()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(SpecFile {
        out: dir.join(format!("{stem}-trajectory.jsonl")),
        stem,
        spec,
        path,
    })
}

/// Generate a CLI workload's specs from the seed and write them out.
pub fn write_specs(
    name: &str,
    seed: u64,
    quick: bool,
    dir: &Path,
) -> Result<Vec<SpecFile>, String> {
    workloads::cli_specs(name, seed, quick)
        .into_iter()
        .map(|(stem, spec)| write_spec(dir, stem, spec))
        .collect()
}

/// One `campaign` child: `--spec F --out O --threads N --quiet`, stdout (the
/// summary lines) returned for the served-vs-CLI comparison.  A single-worker
/// child is pinned to the measured CPU.
pub fn run_campaign(
    campaign_bin: &Path,
    spec: &Path,
    out: &Path,
    threads: usize,
) -> Result<(Usage, String), String> {
    let stdout_path = out.with_extension("stdout");
    let stdout = std::fs::File::create(&stdout_path)
        .map_err(|e| format!("cannot create {}: {e}", stdout_path.display()))?;
    let mut command = Command::new(campaign_bin);
    command
        .arg("--spec")
        .arg(spec)
        .arg("--out")
        .arg(out)
        .args(["--threads", &threads.to_string(), "--quiet"])
        .stdin(Stdio::null())
        .stdout(stdout);
    if threads == 1 {
        child::pin(&mut command);
    }
    let usage = child::run(&mut command)?;
    let summary = std::fs::read_to_string(&stdout_path)
        .map_err(|e| format!("cannot read {}: {e}", stdout_path.display()))?;
    Ok((usage, summary))
}

/// One timed trial of a CLI workload: its specs back to back.
#[derive(Debug, Clone)]
pub struct Trial {
    /// First spawn → last exit: the interval the host-speed factor is taken
    /// over.
    pub window: (Instant, Instant),
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub stats: TrajectoryStats,
    /// Trajectory fingerprint per spec, in run order.
    pub fingerprints: Vec<String>,
}

/// Run the specs through the CLI (wall = Σ spawn→exit) and, outside the
/// timed window, read the trajectories back and count them.
pub fn run_trial(campaign_bin: &Path, specs: &[SpecFile], threads: usize) -> Result<Trial, String> {
    let started = Instant::now();
    let mut trial = Trial {
        window: (started, started),
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        stats: TrajectoryStats::default(),
        fingerprints: Vec::new(),
    };
    for file in specs {
        let _ = std::fs::remove_file(&file.out);
        let (usage, _) = run_campaign(campaign_bin, &file.path, &file.out, threads)?;
        trial.wall_s += usage.wall_s;
        trial.cpu_s += usage.cpu_s;
        trial.peak_rss_mb = trial.peak_rss_mb.max(usage.peak_rss_mb);
    }
    trial.window.1 = Instant::now();
    for file in specs {
        let text = std::fs::read_to_string(&file.out)
            .map_err(|e| format!("cannot read {}: {e}", file.out.display()))?;
        let stats = trajectory_stats(&text).map_err(|e| format!("{}: {e}", file.out.display()))?;
        if stats.cells != file.spec.cell_count() {
            return Err(format!(
                "{}: {} cells in the trajectory, the spec has {}",
                file.out.display(),
                stats.cells,
                file.spec.cell_count()
            ));
        }
        trial.stats.add(&stats);
        trial.fingerprints.push(stats.fingerprint);
    }
    Ok(trial)
}

/// The `core.*.<c>` label of a compiler def (`tree-packing` splits by
/// packing version; labels outside [`crate::metrics::COMPILERS`] are kept
/// verbatim and simply have no catalogue row).
pub fn compiler_label(def: &CompilerDef) -> String {
    match def {
        CompilerDef::TreePacking { packing, .. } => format!("tree-packing-{}", packing.label()),
        other => other.label().to_string(),
    }
}

/// One cell of the traced replay.
#[derive(Debug, Clone)]
pub struct TracedCell {
    pub compiler: String,
    /// The cell found its `(graph, compiler)` artifacts in the cache.
    pub hit: bool,
    pub skipped: bool,
    pub ms: f64,
    /// Execute-only time of the same cell re-run against the now-warm cache;
    /// measured for misses only.
    pub rerun_ms: Option<f64>,
}

/// What the traced replay of one workload measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub cells: Vec<TracedCell>,
    pub spec_parse_ms: f64,
    pub spec_resolve_ms: f64,
    pub summaries_ms: f64,
    pub encode_ms: f64,
    pub write_ms: f64,
    /// Σ of the top-level spans that mirror what the CLI does (re-runs
    /// excluded), milliseconds.
    pub attributed_ms: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Trajectory fingerprint per spec, to hold against the CLI's.
    pub fingerprints: Vec<String>,
}

/// Replay `specs` in-process, single-threaded, one span per step of what the
/// CLI does: `run` ⊃ `spec_parse` · `spec_resolve` · `cell`×N · `summaries` ·
/// `encode` · `write`.  Every cache miss is re-run once (`cell_rerun`) so
/// prepare time is the paired difference on the same cell.
pub fn traced_replay(specs: &[SpecFile], rec: &mut Recorder, dir: &Path) -> Result<Replay, String> {
    let mut replay = Replay::default();
    let run = rec.open("run", None, "");
    for file in specs {
        let tag = file.stem.as_str();
        let text = std::fs::read_to_string(&file.path)
            .map_err(|e| format!("cannot read {}: {e}", file.path.display()))?;
        let id = rec.open("spec_parse", Some(run), tag);
        let spec = CampaignSpec::from_json(&text).map_err(|e| format!("{tag}: {e}"))?;
        replay.spec_parse_ms += rec.close(id);

        let id = rec.open("spec_resolve", Some(run), tag);
        let campaign = Campaign::from_spec(&spec)
            .map_err(|e| format!("{tag}: {e}"))?
            .threads(1);
        replay.spec_resolve_ms += rec.close(id);

        let cache = campaign
            .artifact_cache_handle()
            .ok_or("spec-built campaigns carry an artifact cache")?
            .clone();
        let labels: Vec<String> = spec.grid.compilers.iter().map(compiler_label).collect();
        let reps = spec.repetitions.max(1);
        let mut reports = Vec::with_capacity(spec.cell_count());
        for index in 0..spec.cell_count() {
            let label = &labels[(index / reps) % labels.len()];
            let (hits, misses) = (cache.hits(), cache.misses());
            let id = rec.open("cell", Some(run), label);
            let report = campaign.run_cells(&[index]);
            rec.close(id);
            let hit = cache.hits() > hits;
            if hit == (cache.misses() > misses) {
                return Err(format!(
                    "{tag}: cell {index} moved the cache counters unexpectedly"
                ));
            }
            rec.retag(id, &format!("{label} {}", if hit { "hit" } else { "miss" }));
            let ms = rec.spans()[id].duration_ms();
            replay.attributed_ms += ms;
            let rerun_ms = (!hit).then(|| {
                let id = rec.open("cell_rerun", Some(run), label);
                std::hint::black_box(campaign.run_cells(&[index]));
                rec.close(id)
            });
            replay.cells.push(TracedCell {
                compiler: label.clone(),
                hit,
                skipped: report.cells.first().is_some_and(|c| c.skipped()),
                ms,
                rerun_ms,
            });
            if hit {
                replay.cache_hits += 1;
            } else {
                replay.cache_misses += 1;
            }
            reports.push(report);
        }

        let id = rec.open("summaries", Some(run), tag);
        let report = CampaignReport::merged(reports);
        let summaries = report.summaries();
        replay.summaries_ms += rec.close(id);

        let id = rec.open("encode", Some(run), tag);
        let mut trajectory = trajectory_header(&spec);
        trajectory.push('\n');
        for cell in &report.cells {
            trajectory.push_str(&cell_json(cell));
            trajectory.push('\n');
        }
        let summary_lines: String = summaries.iter().map(|s| summary_json(s) + "\n").collect();
        replay.encode_ms += rec.close(id);

        let id = rec.open("write", Some(run), tag);
        let out = dir.join(format!("{tag}-replay-trajectory.jsonl"));
        std::fs::write(&out, &trajectory)
            .and_then(|()| std::fs::write(out.with_extension("stdout"), &summary_lines))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        replay.write_ms += rec.close(id);

        replay
            .fingerprints
            .push(json::fnv1a_hex(trajectory.bytes()));
    }
    rec.close(run);
    replay.attributed_ms += replay.spec_parse_ms
        + replay.spec_resolve_ms
        + replay.summaries_ms
        + replay.encode_ms
        + replay.write_ms;
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK_LINE: &str = "{\"kind\":\"cell\",\"index\":3,\"graph\":\"K8\",\"adversary\":\"random-mobile\",\"compiler\":\"clique(f=1)\",\"repetition\":1,\"seed\":99,\"status\":\"ok\",\"payload_rounds\":2,\"network_rounds\":17,\"overhead\":8.5,\"corrupted_edge_rounds\":4,\"agrees\":true,\"notes\":{\"type\":\"none\"}}";
    const SKIPPED_LINE: &str = "{\"kind\":\"cell\",\"index\":4,\"graph\":\"K8\",\"adversary\":\"eavesdropper\",\"compiler\":\"clique(f=1)\",\"repetition\":0,\"seed\":5,\"status\":\"skipped\",\"error\":\"role mismatch\"}";
    const FAILED_LINE: &str = "{\"kind\":\"cell\",\"index\":5,\"graph\":\"K8\",\"adversary\":\"burst\",\"compiler\":\"rewind(f=1)\",\"repetition\":0,\"seed\":6,\"status\":\"failed\",\"error\":\"boom\"}";

    #[test]
    fn cell_lines_yield_status_rounds_and_compiler() {
        let ok = parse_cell_line(OK_LINE).unwrap();
        assert_eq!(
            (ok.index, ok.status.as_str(), ok.network_rounds),
            (3, "ok", Some(17))
        );
        assert_eq!(ok.compiler, "clique(f=1)");
        let skipped = parse_cell_line(SKIPPED_LINE).unwrap();
        assert_eq!(
            (skipped.status.as_str(), skipped.network_rounds),
            ("skipped", None)
        );
        assert!(parse_cell_line("{\"kind\":\"campaign\",\"cells\":3}").is_none());
        assert!(parse_cell_line("{\"kind\":\"cell\",\"index\":").is_none());
    }

    #[test]
    fn trajectories_count_executed_failed_and_simulated_rounds() {
        let header = "{\"kind\":\"campaign\",\"fingerprint\":\"ab\",\"seed\":1,\"repetitions\":1,\"cells\":3}";
        let text = format!("{header}\n{OK_LINE}\n{SKIPPED_LINE}\n{FAILED_LINE}\n");
        let stats = trajectory_stats(&text).unwrap();
        assert_eq!(
            (
                stats.cells,
                stats.executed,
                stats.failed,
                stats.network_rounds
            ),
            (3, 2, 1, 17)
        );
        assert_eq!(stats.fingerprint, json::fnv1a_hex(text.bytes()));
        let short = format!("{header}\n{OK_LINE}\n");
        assert!(trajectory_stats(&short)
            .unwrap_err()
            .contains("announces 3"));
        assert!(trajectory_stats(OK_LINE).is_err(), "a header is required");
    }

    #[test]
    fn the_bench_parser_agrees_with_the_programs_own_encoder() {
        let spec = workloads::served_job_spec(11, 0, true);
        let report = Campaign::from_spec(&spec).unwrap().threads(1).run();
        let mut text = trajectory_header(&spec);
        text.push('\n');
        let mut rounds = 0u64;
        for cell in &report.cells {
            text.push_str(&cell_json(cell));
            text.push('\n');
            if let Ok(r) = &cell.outcome {
                rounds += r.network_rounds as u64;
            }
        }
        let stats = trajectory_stats(&text).unwrap();
        assert_eq!(stats.cells, spec.cell_count());
        assert_eq!(stats.executed, report.executed().count());
        assert_eq!(stats.network_rounds, rounds);
        assert!(rounds > 0);
    }

    #[test]
    fn tree_packing_labels_split_by_packing_version() {
        let labels: Vec<String> = workloads::cli_specs("byz-zoo", 1, true)[0]
            .1
            .grid
            .compilers
            .iter()
            .map(compiler_label)
            .collect();
        assert_eq!(
            labels,
            [
                "uncompiled",
                "clique",
                "tree-packing-v1",
                "tree-packing-v2",
                "cycle-cover",
                "static-to-mobile"
            ]
        );
        for label in &labels {
            assert!(crate::metrics::COMPILERS.contains(&label.as_str()));
        }
    }
}
