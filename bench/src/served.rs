//! `served-small`: a `campaignd --threads 1` child on a fresh data directory,
//! one closed-loop submitter and one open-loop reader beside it.
//!
//! The submitter is a closed loop of one client (`POST /jobs`, long-poll to
//! terminal, next job): callers that each wait for their reply.  The reader
//! fires on a fixed 50 ms schedule whatever the server does, times every
//! request from when it was *due*, and reports how late the schedule ran.

use crate::child::{self, Usage};
use crate::cli_run::{self, SpecFile, TrajectoryStats};
use crate::spans::Recorder;
use crate::workloads;
use mobile_congest::campaignd::{Client, JobState, QueryParams};
use mobile_congest::harness::json;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The reader's schedule: every tick it fetches `trajectory`, `summary` and
/// a one-job `/query` of an already finished job.
const READER_PERIOD: Duration = Duration::from_millis(50);

/// A running `campaignd` child.
pub struct Server {
    child: Option<Child>,
    started: Instant,
    pub addr: String,
    pub data_dir: PathBuf,
}

impl Server {
    /// Start the server on a fresh `data_dir` and wait for its first
    /// `healthz`.
    pub fn start(campaignd_bin: &Path, data_dir: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(data_dir);
        std::fs::create_dir_all(data_dir)
            .map_err(|e| format!("cannot create {}: {e}", data_dir.display()))?;
        let started = Instant::now();
        let mut child = child::pin(&mut Command::new(campaignd_bin))
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--addr", "127.0.0.1:0", "--threads", "1", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", campaignd_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            started,
            addr: String::new(),
            data_dir: data_dir.to_path_buf(),
        };
        // The one stdout line: {"kind":"listening","addr":"127.0.0.1:PORT"}.
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("cannot read campaignd's listening line: {e}"))?;
        server.addr = json::parse(line.trim())
            .ok()
            .and_then(|v| v.get("addr").and_then(|a| a.as_str()).map(str::to_string))
            .ok_or_else(|| {
                format!(
                    "campaignd did not announce its address (got `{}`)",
                    line.trim()
                )
            })?;
        let client = server.client();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(client.request("GET", "/healthz", None), Ok((200, _))) {
            if Instant::now() > deadline {
                return Err("campaignd did not answer /healthz within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }

    pub fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// User + system time the server has used so far, seconds, off
    /// `/proc/<pid>/stat` (clock ticks, so good to 10 ms).
    pub fn cpu_s(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("server is running").id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("cannot read campaignd's /proc/{pid}/stat: {e}"))?;
        // The fields after the parenthesised command name start at the
        // state (field 3); utime and stime are fields 14 and 15.
        let ticks = stat
            .rsplit_once(") ")
            .map(|(_, rest)| rest.split(' ').skip(11).take(2))
            .and_then(|fields| fields.map(|f| f.parse::<u64>().ok()).sum::<Option<u64>>())
            .ok_or_else(|| format!("cannot parse /proc/{pid}/stat: {stat}"))?;
        Ok(ticks as f64 / child::CLOCK_TICKS_PER_S)
    }

    /// Kill the server (it has no shutdown request; its store is crash-safe
    /// by design) and return what it cost over its whole life.
    pub fn stop(mut self) -> Result<Usage, String> {
        let mut child = self.child.take().expect("server is running");
        // Reap it whether or not the signal went out: a server that already
        // died must not be left a zombie, and its exit shows in the usage.
        let killed = child.kill();
        let usage = child::reap(child, self.started)?;
        killed.map_err(|e| format!("cannot kill campaignd: {e}"))?;
        Ok(usage)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Error paths must not leave a server behind.
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child::reap(child, self.started);
        }
    }
}

/// What the open-loop reader saw during one batch.
#[derive(Debug, Default)]
pub struct ReaderReport {
    /// Per request, due time → response complete, ms.
    pub read_ms: Vec<f64>,
    /// Per tick, how long after its due time it started, ms.
    pub late_ms: Vec<f64>,
    pub requests: usize,
    pub errors: usize,
}

fn reader_loop(
    client: Client,
    finished_fp: String,
    stop: Arc<AtomicBool>,
    mut rec: Option<Recorder>,
) -> (ReaderReport, Option<Recorder>) {
    let mut report = ReaderReport::default();
    let mut query = QueryParams::new("network_rounds", "mean");
    query.jobs = vec![finished_fp.clone()];
    let t0 = Instant::now();
    for tick in 0u32.. {
        let due = t0 + READER_PERIOD * tick;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        report
            .late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let span = rec.as_mut().map(|r| r.open("read", None, &finished_fp));
        for which in 0..3 {
            let outcome = match which {
                0 => client.trajectory(&finished_fp).map(|_| ()),
                1 => client.summary(&finished_fp).map(|_| ()),
                _ => client.query(&query).map(|_| ()),
            };
            report.requests += 1;
            report.errors += usize::from(outcome.is_err());
            report.read_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
            r.close(id);
        }
    }
    (report, rec)
}

/// One job of a batch, as the submitter saw it.
#[derive(Debug, Clone)]
pub struct JobSample {
    pub fingerprint: String,
    pub submit_ms: f64,
    /// Submit → terminal, ms.
    pub job_ms: f64,
    /// FNV-1a of the job's trajectory bytes as served.
    pub trajectory_fingerprint: String,
}

/// One timed batch (= one trial) of `served-small`.
#[derive(Debug, Default)]
pub struct Batch {
    /// First submit → last job terminal, seconds.
    pub wall_s: f64,
    /// The same interval, which the host-speed factor is taken over.
    pub window: Option<(Instant, Instant)>,
    /// The server's user + system time over that interval, seconds.
    pub cpu_s: f64,
    pub jobs: Vec<JobSample>,
    pub stats: TrajectoryStats,
    pub reader: ReaderReport,
    /// Jobs submitted plus requests made (submitter and reader).
    pub attempted_requests: usize,
    /// Jobs that did not reach `done` plus refused or errored requests.
    pub failed_requests: usize,
}

/// Where a batch's spans go.
pub struct Tracing<'a> {
    pub rec: &'a mut Recorder,
    pub parent: usize,
}

/// Run jobs `first_index .. first_index + jobs` closed-loop; with
/// `reader_target` set, the open-loop reader runs beside them against that
/// finished job.  Trajectories are fetched and counted after the timed
/// window.
pub fn run_batch(
    server: &Server,
    seed: u64,
    first_index: usize,
    quick: bool,
    reader_target: Option<&str>,
    mut tracing: Option<Tracing<'_>>,
) -> Result<Batch, String> {
    let client = server.client();
    let specs: Vec<String> = (0..workloads::served_jobs_per_trial(quick))
        .map(|i| workloads::served_job_spec(seed, first_index + i, quick).to_json())
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = reader_target.map(|fp| {
        let (client, fp, stop) = (server.client(), fp.to_string(), Arc::clone(&stop));
        let rec = tracing
            .as_ref()
            .map(|t| Recorder::with_epoch(t.rec.epoch()));
        std::thread::spawn(move || reader_loop(client, fp, stop, rec))
    });

    let mut batch = Batch::default();
    let mut done = Vec::with_capacity(specs.len());
    let cpu0 = server.cpu_s()?;
    let t0 = Instant::now();
    for spec_json in &specs {
        let submitted = Instant::now();
        batch.attempted_requests += 1;
        let span = tracing
            .as_mut()
            .map(|t| t.rec.open("submit", Some(t.parent), ""));
        let status = client.submit(spec_json);
        if let (Some(t), Some(id)) = (tracing.as_mut(), span) {
            t.rec.close(id);
            if let Ok(s) = &status {
                t.rec.retag(id, &s.fingerprint);
            }
        }
        let submit_ms = submitted.elapsed().as_secs_f64() * 1e3;
        let Ok(status) = status else {
            batch.failed_requests += 1;
            continue;
        };
        let span = tracing
            .as_mut()
            .map(|t| t.rec.open("wait", Some(t.parent), &status.fingerprint));
        let mut polls = 0usize;
        let terminal = client.watch(&status.fingerprint, 1000, |_| polls += 1);
        if let (Some(t), Some(id)) = (tracing.as_mut(), span) {
            t.rec.close(id);
        }
        batch.attempted_requests += polls.max(1);
        match terminal {
            Ok(terminal) => {
                done.push((terminal, submit_ms, submitted.elapsed().as_secs_f64() * 1e3))
            }
            Err(_) => batch.failed_requests += 1,
        }
    }
    let t1 = Instant::now();
    batch.wall_s = (t1 - t0).as_secs_f64();
    batch.window = Some((t0, t1));
    batch.cpu_s = server.cpu_s()? - cpu0;

    stop.store(true, Ordering::SeqCst);
    if let Some(handle) = reader {
        let (report, rec) = handle.join().map_err(|_| "the reader thread panicked")?;
        batch.attempted_requests += report.requests;
        batch.failed_requests += report.errors;
        batch.reader = report;
        if let (Some(t), Some(rec)) = (tracing.as_mut(), rec) {
            t.rec.adopt(rec, Some(t.parent));
        }
    }

    // Outside the timed window: every job must be done, complete and free of
    // failed cells, and its trajectory supplies the exact counts.
    for (status, submit_ms, job_ms) in done {
        let complete = status.state == JobState::Done
            && status.cells_done == status.cells_total
            && status.report_fingerprint.is_some();
        if !complete {
            batch.failed_requests += 1;
            continue;
        }
        let text = client
            .trajectory(&status.fingerprint)
            .map_err(|e| format!("cannot fetch the trajectory of {}: {e}", status.fingerprint))?;
        let stats = cli_run::trajectory_stats(&text)
            .map_err(|e| format!("job {}: {e}", status.fingerprint))?;
        batch.stats.add(&stats);
        batch.jobs.push(JobSample {
            fingerprint: status.fingerprint,
            submit_ms,
            job_ms,
            trajectory_fingerprint: stats.fingerprint,
        });
    }
    Ok(batch)
}

/// Job `index`'s spec as a file, for running it through the CLI.
pub fn job_spec_file(seed: u64, index: usize, quick: bool, dir: &Path) -> Result<SpecFile, String> {
    cli_run::write_spec(
        dir,
        format!("served-job-{index}"),
        workloads::served_job_spec(seed, index, quick),
    )
}

/// The byte-identity contract, checked from outside: the served trajectory
/// and summary of job `index` equal what the `campaign` CLI writes for the
/// same spec file.
pub fn check_against_cli(
    server: &Server,
    campaign_bin: &Path,
    seed: u64,
    index: usize,
    quick: bool,
    dir: &Path,
) -> Result<(), String> {
    let file = job_spec_file(seed, index, quick, dir)?;
    let fp = file.spec.fingerprint();
    let (_, cli_summary) = cli_run::run_campaign(campaign_bin, &file.path, &file.out, 1)?;
    let cli_trajectory = std::fs::read_to_string(&file.out)
        .map_err(|e| format!("cannot read {}: {e}", file.out.display()))?;
    let client = server.client();
    if client.trajectory(&fp)? != cli_trajectory {
        return Err(format!(
            "served trajectory of job {index} ({fp}) differs from the CLI's bytes"
        ));
    }
    if client.summary(&fp)? != cli_summary {
        return Err(format!(
            "served summary of job {index} ({fp}) differs from the CLI's bytes"
        ));
    }
    Ok(())
}
