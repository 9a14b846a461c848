//! `bench run`: set the workloads up, time untraced trials round-robin,
//! check the outputs, then replay each workload traced and run the probes.

use crate::child;
use crate::cli_run::{self, Replay, SpecFile, TrajectoryStats, Trial};
use crate::env::{self, Binaries, Host};
use crate::metrics::{self, MetricDef};
use crate::probes;
use crate::results::{Line, Results, PROBES};
use crate::served::{self, Batch, Server, Tracing};
use crate::spans::{self, Recorder};
use crate::speed::Sampler;
use crate::stats::{self, Summary};
use crate::workloads::{self, Kind, Workload};
use mobile_congest::campaignd::{FsStore, QueryParams, Store};
use mobile_congest::harness::json::{self, json_num, json_str, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads of the measured programs: 1 worker is what BENCH_10's
/// reference used and is no noisier than 2 on a 2-core host.
const THREADS: usize = 1;

/// Which passes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// End-to-end metrics only (`--trace 0`).
    Off,
    /// Per-layer metrics only (`--trace 1`).
    Only,
    /// Both, end to end first (the default).
    Both,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Measured time per workload, seconds.
    pub seconds: f64,
    pub trace: Trace,
    /// Smoke mode: 1 trial, 1 set-up, 1/10 size.
    pub quick: bool,
    /// Write the golden fingerprints instead of checking them.
    pub bless: bool,
    pub out: Option<PathBuf>,
}

impl Options {
    /// Set-ups per run, and the least number of trials (and of every other
    /// repeated measurement): 3, or 1 in smoke mode.
    fn repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// A workload between set-up and its last trial.
enum State {
    Cli {
        specs: Vec<SpecFile>,
        trials: Vec<Trial>,
    },
    Served {
        server: Server,
        /// A job of the warm-up batch: what the reader reads.
        finished: String,
        next_index: usize,
        batches: Vec<Batch>,
    },
}

struct Running {
    workload: Workload,
    /// Per set-up, at the nominal host speed.
    setup_s: Vec<f64>,
    /// Per trial, the host-speed factor its timings are multiplied by.
    speed: Vec<f64>,
    /// Output fingerprints of every set-up's warm-up run.
    warm: Vec<Vec<String>>,
    /// Served only: peak RSS of the set-up servers that were stopped after
    /// their one warm-up batch.
    one_batch_rss_mb: Vec<f64>,
    measured_s: f64,
    state: State,
}

/// What one workload's end-to-end pass produced.
struct EndToEnd {
    lines: Vec<Line>,
    attempted: usize,
    failed: usize,
    fingerprints: Vec<String>,
    /// Median trial wall as the clock read it: what the traced pass, which
    /// is not scaled, holds its spans against.
    wall_s: f64,
}

fn served_digest(batch: &Batch) -> Vec<String> {
    let joined: String = batch
        .jobs
        .iter()
        .map(|j| j.trajectory_fingerprint.as_str())
        .collect();
    vec![json::fnv1a_hex(joined.bytes())]
}

fn set_up(
    w: Workload,
    opts: &Options,
    bins: &Binaries,
    dir: &Path,
    sampler: &Sampler,
) -> Result<Running, String> {
    let mut setup_s = Vec::new();
    let mut warm = Vec::new();
    let mut state = None;
    let mut one_batch_rss_mb = Vec::new();
    for _ in 0..opts.repeats() {
        // Stop the previous set-up's server before the next one starts.  It
        // served exactly the warm-up batch, so its peak RSS belongs to a
        // fixed amount of work.
        if let Some(State::Served { server, .. }) = state.take() {
            one_batch_rss_mb.push(server.stop()?.peak_rss_mb);
        }
        let t0 = Instant::now();
        state = Some(match w.kind {
            Kind::Cli => {
                let specs = cli_run::write_specs(w.name, opts.seed, opts.quick, dir)?;
                let warm_up = cli_run::run_trial(&bins.campaign, &specs, THREADS)?;
                setup_s.push(t0.elapsed().as_secs_f64() * sampler.factor(t0, Instant::now()));
                warm.push(warm_up.fingerprints);
                State::Cli {
                    specs,
                    trials: Vec::new(),
                }
            }
            Kind::Served => {
                let server = Server::start(&bins.campaignd, &dir.join("served-data"))?;
                let batch = served::run_batch(&server, opts.seed, 0, opts.quick, None, None)?;
                setup_s.push(t0.elapsed().as_secs_f64() * sampler.factor(t0, Instant::now()));
                if batch.failed_requests > 0 || batch.stats.failed > 0 {
                    return Err(format!("{}: the warm-up batch had failures", w.name));
                }
                warm.push(served_digest(&batch));
                State::Served {
                    server,
                    finished: batch.jobs[0].fingerprint.clone(),
                    next_index: batch.jobs.len(),
                    batches: Vec::new(),
                }
            }
        });
    }
    Ok(Running {
        workload: w,
        setup_s,
        speed: Vec::new(),
        warm,
        one_batch_rss_mb,
        measured_s: 0.0,
        state: state.expect("at least one set-up ran"),
    })
}

fn one_trial(
    r: &mut Running,
    opts: &Options,
    bins: &Binaries,
    sampler: &Sampler,
) -> Result<(), String> {
    let window = match &mut r.state {
        State::Cli { specs, trials } => {
            let trial = cli_run::run_trial(&bins.campaign, specs, THREADS)?;
            r.measured_s += trial.wall_s;
            let window = trial.window;
            trials.push(trial);
            window
        }
        State::Served {
            server,
            finished,
            next_index,
            batches,
        } => {
            let batch = served::run_batch(
                server,
                opts.seed,
                *next_index,
                opts.quick,
                Some(finished),
                None,
            )?;
            *next_index += workloads::served_jobs_per_trial(opts.quick);
            r.measured_s += batch.wall_s;
            let window = batch.window.expect("a batch that ran has a window");
            batches.push(batch);
            window
        }
    };
    r.speed.push(sampler.factor(window.0, window.1));
    Ok(())
}

fn e2e_line(workload: &str, name: &str, samples: &[f64]) -> Line {
    let def = metrics::end_to_end()
        .into_iter()
        .find(|d| d.name == name)
        .expect("a catalogued end-to-end metric");
    Line {
        workload: workload.to_string(),
        def,
        summary: Summary::of(samples),
    }
}

/// A line outside the catalogue: printed and stored, never judged.
fn info_line(workload: &str, name: &str, unit: &'static str, samples: &[f64]) -> Line {
    Line {
        workload: workload.to_string(),
        def: MetricDef {
            name: name.to_string(),
            unit,
            better: metrics::Better::Higher,
            bound: None,
        },
        summary: Summary::of(samples),
    }
}

/// Check a workload's outputs and fold its trials into result lines.
fn finish(r: Running, opts: &Options, bins: &Binaries, dir: &Path) -> Result<EndToEnd, String> {
    let name = r.workload.name;
    if r.warm.iter().any(|w| *w != r.warm[0]) {
        return Err(format!("{name}: warm-up outputs differ between set-ups"));
    }
    // One timing per trial feeds three metrics: users quote all of them.
    // The timing is put at the nominal host speed; the counts are exact.
    let raw: Vec<(f64, &TrajectoryStats)> = match &r.state {
        State::Cli { trials, .. } => trials.iter().map(|t| (t.wall_s, &t.stats)).collect(),
        State::Served { batches, .. } => batches.iter().map(|b| (b.wall_s, &b.stats)).collect(),
    };
    let speed = &r.speed;
    let timed: Vec<(f64, &TrajectoryStats)> = raw
        .iter()
        .zip(speed)
        .map(|((wall, stats), speed)| (wall * speed, *stats))
        .collect();
    let col = |f: &dyn Fn(f64, &TrajectoryStats) -> f64| -> Vec<f64> {
        timed.iter().map(|(wall, stats)| f(*wall, stats)).collect()
    };
    let wall = col(&|wall, _| wall);
    let raw_wall: Vec<f64> = raw.iter().map(|(wall, _)| *wall).collect();
    let mut lines = vec![
        e2e_line(name, "setup_s", &r.setup_s),
        e2e_line(name, "wall_s", &wall),
        e2e_line(
            name,
            "cells_per_s",
            &col(&|wall, stats| stats.executed as f64 / wall),
        ),
        e2e_line(
            name,
            "sim_rounds_per_s",
            &col(&|wall, stats| stats.network_rounds as f64 / wall),
        ),
    ];
    let mut attempted: usize = timed.iter().map(|(_, stats)| stats.executed).sum();
    let mut failed: usize = timed.iter().map(|(_, stats)| stats.failed).sum();
    match r.state {
        State::Cli { trials, .. } => {
            if let Some(t) = trials.iter().find(|t| t.fingerprints != r.warm[0]) {
                return Err(format!(
                    "{name}: trajectory fingerprints differ between trials ({:?} vs {:?})",
                    t.fingerprints, r.warm[0]
                ));
            }
            let col = |f: &dyn Fn(&Trial, f64) -> f64| {
                trials
                    .iter()
                    .zip(speed)
                    .map(|(t, speed)| f(t, *speed))
                    .collect::<Vec<_>>()
            };
            lines.push(e2e_line(name, "cpu_s", &col(&|t, speed| t.cpu_s * speed)));
            lines.push(e2e_line(name, "peak_rss_mb", &col(&|t, _| t.peak_rss_mb)));
            // A CLI job is one trial's specs handed over back to back.
            lines.push(e2e_line(
                name,
                "job_ms_p50",
                &col(&|t, speed| t.wall_s * 1e3 * speed),
            ));
        }
        State::Served {
            server,
            next_index,
            batches,
            ..
        } => {
            // Three sampled jobs must equal the CLI's bytes for the same spec.
            let first = workloads::served_jobs_per_trial(opts.quick);
            for index in [first, (first + next_index) / 2, next_index - 1] {
                served::check_against_cli(
                    &server,
                    &bins.campaign,
                    opts.seed,
                    index,
                    opts.quick,
                    dir,
                )?;
            }
            let usage = server.stop()?;
            let cpu: Vec<f64> = batches
                .iter()
                .zip(speed)
                .map(|(b, speed)| b.cpu_s * speed)
                .collect();
            lines.push(e2e_line(name, "cpu_s", &cpu));
            // The server keeps every finished record, so its RSS grows with
            // the jobs it has served and the measuring server's depends on
            // how many trials fitted into the run; the servers stopped after
            // exactly one batch are comparable (smoke mode has none).
            let rss = if r.one_batch_rss_mb.is_empty() {
                vec![usage.peak_rss_mb]
            } else {
                r.one_batch_rss_mb.clone()
            };
            lines.push(e2e_line(name, "peak_rss_mb", &rss));
            let job_ms: Vec<f64> = batches
                .iter()
                .zip(speed)
                .flat_map(|(b, speed)| b.jobs.iter().map(move |j| j.job_ms * speed))
                .collect();
            if job_ms.is_empty() {
                return Err(format!("{name}: no job reached `done`"));
            }
            lines.push(e2e_line(name, "job_ms_p50", &job_ms));
            attempted += batches.iter().map(|b| b.attempted_requests).sum::<usize>();
            failed += batches.iter().map(|b| b.failed_requests).sum::<usize>();
        }
    }
    // Beside the metrics, what they were scaled from and by.
    lines.push(info_line(name, "wall_raw_s", "s", &raw_wall));
    lines.push(info_line(name, "host_factor", "ratio", speed));
    Ok(EndToEnd {
        lines,
        attempted,
        failed,
        fingerprints: r.warm[0].clone(),
        wall_s: stats::median(&raw_wall),
    })
}

fn layer_line(workload: &str, name: &str, summary: Summary) -> Option<Line> {
    // A compiler outside the catalogue (none today) has no row.
    let def: MetricDef = metrics::per_layer().into_iter().find(|d| d.name == name)?;
    Some(Line {
        workload: workload.to_string(),
        def,
        summary,
    })
}

/// Per-layer lines of one in-process replay against the untraced CLI wall.
fn replay_lines(workload: &str, replay: &Replay, cli_wall_s: f64) -> Vec<Line> {
    let mut out = Vec::new();
    let mut push = |name: &str, summary: Summary| out.extend(layer_line(workload, name, summary));
    let total_ms: f64 = replay.cells.iter().map(|c| c.ms).sum();
    for c in metrics::COMPILERS {
        let of = |hit: bool| -> Vec<f64> {
            replay
                .cells
                .iter()
                .filter(|cell| cell.compiler == c && cell.hit == hit && !cell.skipped)
                .map(|cell| cell.ms)
                .collect()
        };
        let (hits, misses) = (of(true), of(false));
        if !hits.is_empty() {
            push(&format!("core.cell_hit_ms_p50.{c}"), Summary::of(&hits));
        }
        if !misses.is_empty() {
            push(&format!("core.cell_miss_ms_p50.{c}"), Summary::of(&misses));
        }
        let share: f64 = replay
            .cells
            .iter()
            .filter(|cell| cell.compiler == c)
            .map(|cell| cell.ms)
            .sum();
        if share > 0.0 {
            push(
                &format!("core.share_pct.{c}"),
                Summary::single(share / total_ms * 100.0),
            );
        }
    }
    // Prepare time is the paired difference on each missed cell: its first
    // run minus its re-run against the warm cache.
    let prepare_ms: f64 = replay
        .cells
        .iter()
        .filter_map(|c| c.rerun_ms.map(|rerun| (c.ms - rerun).max(0.0)))
        .sum();
    push(
        "core.prepare_share_pct",
        Summary::single(prepare_ms / total_ms * 100.0),
    );
    push(
        "harness.spec_parse_ms",
        Summary::single(replay.spec_parse_ms),
    );
    push(
        "harness.spec_resolve_ms",
        Summary::single(replay.spec_resolve_ms),
    );
    let executed: Vec<f64> = replay
        .cells
        .iter()
        .filter(|c| !c.skipped)
        .map(|c| c.ms)
        .collect();
    push("harness.cell_ms_p50", Summary::of(&executed));
    push(
        "harness.cell_ms_p99",
        Summary::single(stats::percentile(&executed, 99.0)),
    );
    push("harness.summaries_ms", Summary::single(replay.summaries_ms));
    push("harness.encode_ms", Summary::single(replay.encode_ms));
    push("harness.write_ms", Summary::single(replay.write_ms));
    push(
        "harness.cache_hits",
        Summary::single(replay.cache_hits as f64),
    );
    push(
        "harness.cache_misses",
        Summary::single(replay.cache_misses as f64),
    );
    let cli_ms = cli_wall_s * 1e3;
    push(
        "harness.unattributed_pct",
        Summary::single((cli_ms - replay.attributed_ms) / cli_ms * 100.0),
    );
    out
}

/// Write a workload's spans out and print where its time went: per span
/// name, the summed duration and the summed self time.
fn write_trace(rec: &Recorder, workload: &str, dir: &Path) -> Result<(), String> {
    let path = dir.join(format!("trace-{workload}.jsonl"));
    std::fs::write(&path, rec.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in rec.spans().iter().zip(spans::self_times_ns(rec.spans())) {
        let row = by_name.entry(&span.name).or_default();
        *row = (row.0 + 1, row.1 + span.duration_ns(), row.2 + self_ns);
    }
    println!(
        "trace {workload}: {} spans -> {}",
        rec.spans().len(),
        path.display()
    );
    for (name, (count, total_ns, self_ns)) in by_name {
        println!(
            "  {name:<14} {count:>6} spans {:>12.3} ms total {:>12.3} ms self",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    Ok(())
}

/// The traced pass of a CLI workload.  `reference` is the untraced pass's
/// `(median wall, fingerprints)` when it ran in this invocation.
fn trace_cli(
    w: Workload,
    opts: &Options,
    bins: &Binaries,
    dir: &Path,
    reference: Option<(f64, Vec<String>)>,
) -> Result<(Vec<Line>, usize), String> {
    let specs = cli_run::write_specs(w.name, opts.seed, opts.quick, dir)?;
    let (cli_wall_s, fingerprints) = match reference {
        Some(reference) => reference,
        None => {
            cli_run::run_trial(&bins.campaign, &specs, THREADS)?;
            let trials = (0..opts.repeats())
                .map(|_| cli_run::run_trial(&bins.campaign, &specs, THREADS))
                .collect::<Result<Vec<_>, _>>()?;
            let wall: Vec<f64> = trials.iter().map(|t| t.wall_s).collect();
            (stats::median(&wall), trials[0].fingerprints.clone())
        }
    };
    let mut rec = Recorder::new();
    let replay = cli_run::traced_replay(&specs, &mut rec, dir)?;
    write_trace(&rec, w.name, dir)?;
    if replay.fingerprints != fingerprints {
        return Err(format!(
            "{}: the in-process replay's trajectories differ from the CLI's",
            w.name
        ));
    }
    let mut lines = replay_lines(w.name, &replay, cli_wall_s);
    // The bench's own tracing overhead: the traced `run` span (re-runs
    // taken out) against the untraced child.
    let rerun_ms: f64 = replay.cells.iter().filter_map(|c| c.rerun_ms).sum();
    let (run_ms, cli_ms) = (rec.spans()[0].duration_ms(), cli_wall_s * 1e3);
    lines.extend(layer_line(
        w.name,
        "bench.trace_overhead_pct",
        Summary::single((run_ms - rerun_ms - cli_ms) / cli_ms * 100.0),
    ));
    if w.name == "byz-zoo" {
        // Informational: the same spec on two workers.
        let wall: Vec<f64> = (0..opts.repeats())
            .map(|_| cli_run::run_trial(&bins.campaign, &specs, 2).map(|t| t.wall_s))
            .collect::<Result<_, _>>()?;
        lines.extend(layer_line(w.name, "harness.wall_2t_s", Summary::of(&wall)));
        lines.extend(layer_line(
            w.name,
            "harness.speedup_2t",
            Summary::single(cli_wall_s / stats::median(&wall)),
        ));
    }
    Ok((lines, replay.cells.len()))
}

/// The traced pass of `served-small`: client-side spans per request, the
/// idle-server probes, the same jobs through the CLI, and an in-process
/// replay of one batch's specs.
fn trace_served(
    w: Workload,
    opts: &Options,
    bins: &Binaries,
    dir: &Path,
) -> Result<(Vec<Line>, usize, usize), String> {
    let per_batch = workloads::served_jobs_per_trial(opts.quick);
    let server = Server::start(&bins.campaignd, &dir.join("served-data"))?;
    let warm = served::run_batch(&server, opts.seed, 0, opts.quick, None, None)?;
    let finished = warm
        .jobs
        .first()
        .ok_or("the warm-up batch finished no job")?
        .fingerprint
        .clone();
    let mut next_index = per_batch;
    let mut rec = Recorder::new();
    let root = rec.open("run", None, "");
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // Interleaved, so a slow window hits both sides.
    for _ in 0..opts.repeats() {
        untraced.push(served::run_batch(
            &server,
            opts.seed,
            next_index,
            opts.quick,
            Some(&finished),
            None,
        )?);
        next_index += per_batch;
        let trial = rec.open("trial", Some(root), "");
        let tracing = Tracing {
            rec: &mut rec,
            parent: trial,
        };
        traced.push(served::run_batch(
            &server,
            opts.seed,
            next_index,
            opts.quick,
            Some(&finished),
            Some(tracing),
        )?);
        rec.close(trial);
        next_index += per_batch;
    }
    rec.close(root);
    write_trace(&rec, w.name, dir)?;

    let mut out = Vec::new();
    let mut push = |name: &str, summary: Summary| out.extend(layer_line(w.name, name, summary));
    let over = |f: &dyn Fn(&Batch) -> Vec<f64>| traced.iter().flat_map(f).collect::<Vec<f64>>();
    let submit = over(&|b| b.jobs.iter().map(|j| j.submit_ms).collect());
    let job = over(&|b| b.jobs.iter().map(|j| j.job_ms).collect());
    let read = over(&|b| b.reader.read_ms.clone());
    let late = over(&|b| b.reader.late_ms.clone());
    if submit.is_empty() || read.is_empty() {
        return Err(format!(
            "{}: the traced batches recorded no request",
            w.name
        ));
    }
    push("campaignd.submit_ms_p50", Summary::of(&submit));
    push(
        "campaignd.job_ms_p95",
        Summary::single(stats::percentile(&job, 95.0)),
    );
    push("campaignd.read_ms_p50", Summary::of(&read));
    push(
        "campaignd.read_ms_p95",
        Summary::single(stats::percentile(&read, 95.0)),
    );
    push(
        "campaignd.reader_late_ms_p95",
        Summary::single(stats::percentile(&late, 95.0)),
    );

    // The idle server, holding every job submitted so far.
    let client = server.client();
    let budget = if opts.quick { 0.02 } else { 0.3 };
    let (t0, mut requests) = (Instant::now(), 0usize);
    while t0.elapsed().as_secs_f64() < budget {
        client.status(&finished)?;
        requests += 1;
    }
    push(
        "campaignd.status_req_per_s",
        Summary::single(requests as f64 / t0.elapsed().as_secs_f64()),
    );
    let all_jobs = QueryParams::new("network_rounds", "mean");
    let query_ms = (0..if opts.quick { 2 } else { 10 })
        .map(|_| {
            let t0 = Instant::now();
            client
                .query(&all_jobs)
                .map(|_| t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<Vec<_>, _>>()?;
    push("campaignd.query_all_ms", Summary::of(&query_ms));

    // The first untraced batch's specs through the CLI back to back, and
    // replayed in-process for the core/harness rows.
    let specs = (per_batch..2 * per_batch)
        .map(|index| served::job_spec_file(opts.seed, index, opts.quick, dir))
        .collect::<Result<Vec<_>, _>>()?;
    cli_run::run_trial(&bins.campaign, &specs, THREADS)?;
    let cli_wall: Vec<f64> = (0..opts.repeats())
        .map(|_| cli_run::run_trial(&bins.campaign, &specs, THREADS).map(|t| t.wall_s))
        .collect::<Result<_, _>>()?;
    let cli_wall_s = stats::median(&cli_wall);
    let wall_of =
        |batches: &[Batch]| stats::median(&batches.iter().map(|b| b.wall_s).collect::<Vec<_>>());
    let served_wall_s = wall_of(&untraced);
    push(
        "campaignd.overhead_pct",
        Summary::single((served_wall_s - cli_wall_s) / cli_wall_s * 100.0),
    );
    let traced_overhead = (wall_of(&traced) - served_wall_s) / served_wall_s * 100.0;

    // Recovery replay of the store the server leaves behind.
    let data_dir = server.data_dir.clone();
    server.stop()?;
    let load_ms = (0..opts.repeats())
        .map(|_| {
            let t0 = Instant::now();
            let jobs = FsStore::open(&data_dir)
                .and_then(|store| store.load_jobs())
                .map_err(|e| e.to_string())?;
            if jobs.len() != next_index {
                return Err(format!(
                    "the store replays {} jobs, {next_index} were submitted",
                    jobs.len()
                ));
            }
            Ok(t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<Vec<_>, String>>()?;
    push("campaignd.load_jobs_ms", Summary::of(&load_ms));

    let replay = cli_run::traced_replay(&specs, &mut Recorder::new(), dir)?;
    out.extend(replay_lines(w.name, &replay, cli_wall_s));
    // Here the bench's own tracing overhead is the traced batches'.
    out.extend(layer_line(
        w.name,
        "bench.trace_overhead_pct",
        Summary::single(traced_overhead),
    ));
    let count = |f: &dyn Fn(&Batch) -> usize| untraced.iter().chain(&traced).map(f).sum::<usize>();
    Ok((
        out,
        count(&|b| b.stats.executed + b.attempted_requests),
        count(&|b| b.stats.failed + b.failed_requests),
    ))
}

fn golden_path() -> PathBuf {
    env::repo_root()
        .join("bench")
        .join("golden")
        .join("fingerprints.json")
}

fn golden_key(workload: &str, quick: bool) -> String {
    if quick {
        format!("{workload}.quick")
    } else {
        workload.to_string()
    }
}

fn read_golden() -> Result<BTreeMap<String, Vec<String>>, String> {
    let path = golden_path();
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(BTreeMap::new());
    };
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc
        .as_object()
        .unwrap_or(&[])
        .iter()
        .map(|(k, v)| {
            let fps = v.as_array().unwrap_or(&[]);
            (
                k.clone(),
                fps.iter()
                    .filter_map(JsonValue::as_str)
                    .map(str::to_string)
                    .collect(),
            )
        })
        .collect())
}

/// Hold the default seed's outputs against the committed golden
/// fingerprints (or write them with `--bless`).  Other seeds have no golden.
fn check_golden(
    opts: &Options,
    fingerprints: &BTreeMap<String, Vec<String>>,
) -> Result<(), String> {
    if opts.seed != workloads::DEFAULT_SEED {
        return Ok(());
    }
    let mut golden = read_golden()?;
    if opts.bless {
        for (workload, fps) in fingerprints {
            golden.insert(golden_key(workload, opts.quick), fps.clone());
        }
        let body: Vec<String> = golden
            .iter()
            .map(|(k, fps)| {
                let list: Vec<String> = fps.iter().map(|f| json_str(f)).collect();
                format!("  {}: [{}]", json_str(k), list.join(", "))
            })
            .collect();
        let path = golden_path();
        return std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))
            .map_err(|e| format!("cannot write {}: {e}", path.display()));
    }
    for (workload, fps) in fingerprints {
        let key = golden_key(workload, opts.quick);
        match golden.get(&key) {
            Some(want) if want == fps => {}
            Some(want) => {
                return Err(format!(
                    "{workload}: outputs {fps:?} differ from the golden fingerprints {want:?} \
                     (bench/golden/fingerprints.json; `--bless` rewrites them after an intended change)"
                ))
            }
            None => return Err(format!("no golden fingerprints for `{key}`; run with `--bless` once")),
        }
    }
    Ok(())
}

/// The contract's result object for a single-workload invocation.
fn contract_line(
    defs: &[MetricDef],
    lines: &[Line],
    workload: &str,
    attempted: usize,
    failed: usize,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|def| {
            // A per-layer metric that does not apply to this workload reads 0.
            let value = lines
                .iter()
                .find(|l| {
                    l.def.name == def.name && (l.workload == workload || l.workload == PROBES)
                })
                .map_or(0.0, |l| l.summary.median);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&def.name),
                json_num(value),
                json_str(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn print_table(lines: &[Line]) {
    println!(
        "{:<14} {:<42} {:>14} {:<9} {:>4} {:>12} {:>12} {:>12} {:>7}",
        "workload", "metric", "median", "unit", "n", "min", "q1", "q3", "iqr%"
    );
    for l in lines {
        let s = &l.summary;
        println!(
            "{:<14} {:<42} {:>14.4} {:<9} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>7.2}",
            l.workload,
            l.def.name,
            s.median,
            l.def.unit,
            s.n,
            s.min,
            s.q1,
            s.q3,
            s.spread() * 100.0
        );
    }
}

pub fn run(opts: &Options) -> Result<(), String> {
    let bins = env::ensure_binaries()?;
    let dir = env::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut lines: Vec<Line> = Vec::new();
    let mut fingerprints = BTreeMap::new();
    let mut references: BTreeMap<&str, (f64, Vec<String>)> = BTreeMap::new();
    let (mut attempted, mut failed) = (0usize, 0usize);

    if opts.trace != Trace::Only {
        // For as long as this pass runs: the host's speed is sampled on the
        // measured CPU, and the bench's own threads keep off it.
        let sampler = Sampler::start();
        let off_measured_cpu = child::leave_measured_cpu();
        let mut running = opts
            .workloads
            .iter()
            .map(|w| set_up(*w, opts, &bins, &dir, &sampler))
            .collect::<Result<Vec<_>, _>>()?;
        // Trials interleave round-robin (A B C D A B C D …) so a slow window
        // on a shared host hits every workload, not one.
        let trials_of = |r: &Running| match &r.state {
            State::Cli { trials, .. } => trials.len(),
            State::Served { batches, .. } => batches.len(),
        };
        loop {
            let mut ran = false;
            for r in running.iter_mut() {
                let enough =
                    trials_of(r) >= opts.repeats() && (opts.quick || r.measured_s >= opts.seconds);
                if !enough {
                    one_trial(r, opts, &bins, &sampler)?;
                    ran = true;
                }
            }
            if !ran {
                break;
            }
        }
        drop(sampler);
        drop(off_measured_cpu);
        for r in running {
            let name = r.workload.name;
            let done = finish(r, opts, &bins, &dir)?;
            attempted += done.attempted;
            failed += done.failed;
            references.insert(name, (done.wall_s, done.fingerprints.clone()));
            fingerprints.insert(name.to_string(), done.fingerprints);
            lines.extend(done.lines);
        }
        check_golden(opts, &fingerprints)?;
    }

    if opts.trace != Trace::Off {
        for w in &opts.workloads {
            match w.kind {
                Kind::Cli => {
                    let (traced, cells) =
                        trace_cli(*w, opts, &bins, &dir, references.get(w.name).cloned())?;
                    lines.extend(traced);
                    attempted += cells;
                }
                Kind::Served => {
                    let (traced, tried, bad) = trace_served(*w, opts, &bins, &dir)?;
                    lines.extend(traced);
                    attempted += tried;
                    failed += bad;
                }
            }
        }
        let budget = if opts.quick {
            probes::Budget::quick()
        } else {
            probes::Budget::full()
        };
        for (name, summary) in probes::run_all(budget, opts.seed, opts.quick, &dir)? {
            lines.extend(layer_line(PROBES, &name, summary));
        }
    }

    if failed > 0 {
        return Err(format!(
            "{failed} of {attempted} operations failed; the workloads are chosen so that none does"
        ));
    }

    print_table(&lines);
    let results = Results {
        host: Host::describe(),
        seed: opts.seed,
        threads: THREADS,
        run_seconds: opts.seconds,
        quick: opts.quick,
        fingerprints,
        lines,
    };
    let out = opts.out.clone().unwrap_or_else(|| dir.join("results.json"));
    std::fs::write(&out, results.to_json())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if let [w] = opts.workloads.as_slice() {
        // One workload and one pass: the driver's contract line, last.
        let defs = match opts.trace {
            Trace::Off => Some(metrics::end_to_end()),
            Trace::Only => Some(metrics::per_layer()),
            Trace::Both => None,
        };
        if let Some(defs) = defs {
            println!(
                "{}",
                contract_line(&defs, &results.lines, w.name, attempted, failed)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--workload W --quick`: 1 set-up, 1 trial, 1/10 size, every check on
    /// (the golden fingerprints included) — finishes in seconds once the
    /// release binaries are built.
    #[test]
    fn quick_mode_runs_workloads_end_to_end_in_seconds() {
        let out = env::out_dir().join("smoke-results.json");
        let opts = Options {
            workloads: vec![
                workloads::find("cold-pairs").unwrap(),
                workloads::find("served-small").unwrap(),
            ],
            seed: workloads::DEFAULT_SEED,
            seconds: 1.0,
            trace: Trace::Off,
            quick: true,
            bless: false,
            out: Some(out.clone()),
        };
        env::ensure_binaries().expect("the release binaries build");
        let t0 = Instant::now();
        run(&opts).expect("the smoke run passes every check");
        assert!(
            t0.elapsed().as_secs() < 30,
            "smoke mode took {:?}",
            t0.elapsed()
        );
        let loaded = crate::results::load(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(loaded.end_to_end.len(), 2 * metrics::end_to_end().len());
        assert_eq!(
            loaded.fingerprints["cold-pairs"].len(),
            2,
            "one per spec file"
        );
    }
}
