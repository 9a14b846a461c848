//! The campaign server: the job protocol of `job.rs` run over real threads,
//! the store and the std-only HTTP API.  Every `Job` lives in one map under
//! the jobs lock; each event is applied to its job under that lock, and the
//! server carries out the `Effect`s it returns.
//!
//! One runner thread drains the runnable FIFO.  It runs each job's claimed
//! cells as the contiguous chunks of the harness's one chunk rule
//! ([`Campaign::chunks`]: at most eight, and no fewer cells each than the
//! engine has threads; the `campaign` and `redteam` CLIs run theirs the
//! same way), each through [`Campaign::run_cells`] on `workers` engine
//! threads, and hands each executed batch to the committer thread over a
//! one-slot channel.  The committer appends the batch to the job's fsync'd
//! log outside the jobs lock, then publishes it, so the fsync overlaps the
//! next batch's execution.  A crash loses at most the batch in flight (one
//! chunk) plus what waits at the committer: the batch being appended and
//! one in the slot.
//!
//! A cell's seed depends only on its global index, so a server-run job is
//! **byte-identical** to the one-shot CLI run of its spec (summary and
//! trajectory bytes, report fingerprint) whatever the batching, threads,
//! restarts or commit order.  Reads walk the done records through the
//! CLI's encoders ([`summaries_of`], [`harness::CellRecord::cell_line`]).

use crate::api_types::{ApiError, JobList, JobState, QueryResponse, QueryRow};
use crate::http::{self, Request, Response};
use crate::job::{Batch, Effect, Job};
use crate::store::{FsStore, Store, StoredJob};
use harness::campaign::summary_json;
use harness::report::{summaries_of, trajectory_header};
use harness::{Campaign, CampaignSpec, StatSummary};
use mobile_congest_harness as harness;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Threads serving HTTP connections, each accepting on its own handle of
/// the listener; past them, connections wait in the kernel's listen
/// backlog.
pub const HTTP_THREADS: usize = 2;

/// Server configuration.
pub struct Config {
    /// Listen address (`127.0.0.1:0` picks a free port; see
    /// [`Handle::addr`] for the resolved one).
    pub addr: String,
    /// Store root (the `jobs/` tree is created under it).
    pub data_dir: PathBuf,
    /// Engine threads each batch runs on.  `0` starts no runner — jobs
    /// queue durably but nothing executes (a testing knob; the binaries
    /// always pass at least 1).
    pub workers: usize,
    /// Suppress stderr diagnostics.
    pub quiet: bool,
}

impl Config {
    /// Defaults: any free loopback port, one engine thread per core.
    pub fn new(data_dir: impl Into<PathBuf>) -> Config {
        Config {
            addr: "127.0.0.1:0".to_string(),
            data_dir: data_dir.into(),
            workers: harness::default_threads(),
            quiet: false,
        }
    }
}

struct Inner {
    store: Box<dyn Store>,
    jobs: Mutex<BTreeMap<String, Job>>,
    /// Signalled on every job state change; long-polling status requests
    /// (`GET /jobs/{fp}?wait_ms=N`) block on it instead of busy-polling.
    jobs_cv: Condvar,
    /// Fingerprints of jobs with cells to run, to the runner thread.
    runnable: mpsc::Sender<String>,
    /// Executed batches to the committer thread, in execution order.  One
    /// slot: past it the runner waits instead of running further ahead of
    /// durability.
    commits: mpsc::SyncSender<(String, Batch)>,
    /// Cells executed by the engine in this server process — the
    /// zero-re-execution recovery contract is asserted against this.
    executed: AtomicUsize,
    /// Engine threads per batch ([`Config::workers`]).
    workers: usize,
    quiet: bool,
    /// One compile-artifact cache for the whole daemon: every job's
    /// campaign shares it, so resubmitted or overlapping specs reuse each
    /// `(graph, compiler)` preparation across batches and across jobs.
    artifact_cache: Arc<harness::ArtifactCache>,
}

impl Inner {
    fn log(&self, msg: impl core::fmt::Display) {
        if !self.quiet {
            eprintln!("campaignd: {msg}");
        }
    }

    /// A spec's campaign on this server's engine threads and shared
    /// artifact cache.
    fn campaign(&self, spec: &CampaignSpec) -> Result<Arc<Campaign>, harness::SpecError> {
        Ok(Arc::new(
            Campaign::from_spec(spec)?
                .threads(self.workers)
                .artifact_cache(Arc::clone(&self.artifact_cache)),
        ))
    }

    /// Apply `event` to one job under the jobs lock.
    fn with_job<T>(&self, fingerprint: &str, event: impl FnOnce(&mut Job) -> T) -> T {
        let mut jobs = self.jobs.lock().expect("jobs lock");
        event(jobs.get_mut(fingerprint).expect("jobs are never removed"))
    }

    /// Carry out a transition's effects, in order.  Caller holds the jobs
    /// lock.
    fn apply(&self, job: &mut Job, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Write(state) => {
                    if let Err(e) = self.store.set_state(&job.status().fingerprint, state) {
                        if state != JobState::Failed {
                            let failed = job.fail(e.to_string());
                            return self.apply(job, failed);
                        }
                    }
                }
                // Without a runner (`workers: 0`) the receiver is gone and
                // the job only stays queued.
                Effect::Schedule => drop(self.runnable.send(job.status().fingerprint.clone())),
                Effect::Wake => self.jobs_cv.notify_all(),
                Effect::Log(line) => self.log(line),
            }
        }
    }
}

/// A handle on a started server: the resolved address plus the process-level
/// execution counter.  Dropping the handle does **not** stop the server;
/// the HTTP threads, the runner and the committer run until process exit
/// (the server is a daemon, not a scoped task).  A graceful shutdown would
/// have to stop the runner at its next state check and drain the
/// committer's channel before exiting: executed cells waiting there are not
/// yet durable.
pub struct Handle {
    addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Handle {
    /// The resolved listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cells executed by the engine in this server process (across all
    /// jobs).  After recovering a half-done job, `executed()` at completion
    /// equals exactly the number of cells that were missing — zero
    /// re-execution.
    pub fn executed(&self) -> usize {
        self.inner.executed.load(Ordering::SeqCst)
    }
}

/// Start a server: open (and replay) the store, bind the listener, spawn
/// the runner, the committer and the HTTP threads.
pub fn start(config: Config) -> Result<Handle, String> {
    let store = FsStore::open(&config.data_dir).map_err(|e| e.to_string())?;
    start_on(config, Box::new(store))
}

/// [`start`] over a given store (`config.data_dir` is not read).
fn start_on(config: Config, store: Box<dyn Store>) -> Result<Handle, String> {
    let (runnable, jobs_to_run) = mpsc::channel();
    let (commits, incoming) = mpsc::sync_channel(1);
    let inner = Arc::new(Inner {
        store,
        jobs: Mutex::new(BTreeMap::new()),
        jobs_cv: Condvar::new(),
        runnable,
        commits,
        executed: AtomicUsize::new(0),
        workers: config.workers,
        quiet: config.quiet,
        artifact_cache: Arc::new(harness::ArtifactCache::new()),
    });

    recover(&inner).map_err(|e| format!("recovery failed: {e}"))?;

    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    if config.workers > 0 {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("campaignd-runner".to_string())
            .spawn(move || {
                for fingerprint in jobs_to_run {
                    run_job(&inner, &fingerprint);
                }
            })
            .map_err(|e| format!("cannot spawn runner: {e}"))?;
    }
    {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("campaignd-committer".to_string())
            .spawn(move || {
                for (fingerprint, batch) in incoming {
                    commit(&inner, &fingerprint, batch);
                }
            })
            .map_err(|e| format!("cannot spawn committer: {e}"))?;
    }
    for worker in 0..HTTP_THREADS {
        let inner = Arc::clone(&inner);
        let listener = listener
            .try_clone()
            .map_err(|e| format!("cannot clone listener: {e}"))?;
        std::thread::Builder::new()
            .name(format!("campaignd-http-{worker}"))
            .spawn(move || {
                for stream in listener.incoming().flatten() {
                    serve_connection(&inner, stream);
                }
            })
            .map_err(|e| format!("cannot spawn http thread: {e}"))?;
    }

    let handle = Handle {
        addr,
        inner: Arc::clone(&inner),
    };
    inner.log(format!("listening on {addr}"));
    Ok(handle)
}

/// Replay the store into the in-memory job map, each job through `Recover`.
fn recover(inner: &Arc<Inner>) -> Result<(), String> {
    let stored = inner.store.load_jobs().map_err(|e| e.to_string())?;
    let mut jobs = inner.jobs.lock().expect("jobs lock");
    for stored in stored {
        let campaign = inner
            .campaign(&stored.spec)
            .map_err(|e| format!("job {}: {e}", stored.fingerprint))?;
        let (mut job, effects) = Job::recover(stored, campaign);
        inner.apply(&mut job, effects);
        jobs.insert(job.status().fingerprint.clone(), job);
    }
    Ok(())
}

/// Run one job's pending cells, claimed once at pickup, batch by batch
/// through the engine, each executed batch to the committer.
fn run_job(inner: &Inner, fingerprint: &str) {
    let (campaign, pending) =
        inner.with_job(fingerprint, |job| (Arc::clone(&job.campaign), job.pickup()));
    for batch in campaign.chunks(&pending) {
        if !inner.with_job(fingerprint, Job::check) {
            return;
        }
        // The work happens outside every lock, the one encode per cell too.
        let batch = Batch::of(&campaign.run_cells(batch).cells);
        let cells = batch.lines.len();
        inner.executed.fetch_add(cells, Ordering::SeqCst);
        inner.with_job(fingerprint, |job| job.sent(&batch));
        inner
            .commits
            .send((fingerprint.to_string(), batch))
            .expect("the committer runs until process exit");
    }
}

/// Persist one executed batch, then publish its cells: durability before
/// visibility — the fsync'd append returns before the jobs lock is taken.
fn commit(inner: &Inner, fingerprint: &str, batch: Batch) {
    let append = inner.store.append_cells(fingerprint, &batch.lines);
    inner.with_job(fingerprint, |job| {
        let effects = job.appended(batch, append.map_err(|e| e.to_string()));
        inner.apply(job, effects);
    });
}

fn serve_connection(inner: &Arc<Inner>, mut stream: std::net::TcpStream) {
    // The request is read against its own deadline; long-polls wait after
    // it, so no timeout cuts them short.
    let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
    let response = match http::read_request(&mut stream) {
        Ok(request) => route(inner, &request),
        Err(e) => Response::json(400, ApiError { error: e }.to_json()),
    };
    let _ = http::write_response(&mut stream, &response);
}

fn error_response(status: u16, error: impl Into<String>) -> Response {
    Response::json(
        status,
        ApiError {
            error: error.into(),
        }
        .to_json(),
    )
}

fn not_found(fingerprint: &str) -> Response {
    error_response(404, format!("no job with fingerprint `{fingerprint}`"))
}

/// A text document read off one job under the jobs lock.
fn read_job(inner: &Inner, fp: &str, read: impl FnOnce(&Job) -> String) -> Response {
    match inner.jobs.lock().expect("jobs lock").get(fp) {
        Some(job) => Response::text(200, read(job)),
        None => not_found(fp),
    }
}

/// Dispatch one request.
fn route(inner: &Arc<Inner>, request: &Request) -> Response {
    let segments = request.segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(
            200,
            harness::json::object(|w| {
                w.str("kind", "health").opt_bool("ok", Some(true));
            }),
        ),
        ("POST", ["jobs"]) => submit(inner, &request.body),
        ("GET", ["jobs"]) => {
            let jobs = inner.jobs.lock().expect("jobs lock");
            let list = JobList {
                jobs: jobs.values().map(|job| job.status().clone()).collect(),
            };
            Response::json(200, list.to_json())
        }
        ("GET", ["jobs", fp]) => {
            // `?wait_ms=N` long-polls: the response is held back (up to a
            // 30s cap) until the job reaches a terminal state, so watchers
            // burn one blocked connection instead of a busy-poll loop.
            let wait_ms: u64 = request
                .query_param("wait_ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
                .min(30_000);
            let mut jobs = inner.jobs.lock().expect("jobs lock");
            let deadline = std::time::Instant::now() + Duration::from_millis(wait_ms);
            while wait_ms > 0
                && matches!(jobs.get(*fp), Some(job) if !job.status().state.is_terminal())
            {
                let now = std::time::Instant::now();
                let Some(left) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                jobs = inner.jobs_cv.wait_timeout(jobs, left).expect("jobs wait").0;
            }
            match jobs.get(*fp) {
                Some(job) => Response::json(200, job.status().to_json()),
                None => not_found(fp),
            }
        }
        // The summary block (one `kind:"summary"` line per grid cell) over
        // the done records in index order: the CLI's stdout for those cells.
        ("GET", ["jobs", fp, "summary"]) => read_job(inner, fp, |job| {
            let summaries = summaries_of(job.records());
            summaries.iter().map(|s| summary_json(s) + "\n").collect()
        }),
        ("GET", ["jobs", fp, "trajectory"]) => read_job(inner, fp, |job| {
            let mut text = trajectory_header(&job.spec) + "\n";
            for record in job.records() {
                text.push_str(&record.cell_line());
                text.push('\n');
            }
            text
        }),
        ("DELETE", ["jobs", fp]) => cancel(inner, fp),
        ("GET", ["query"]) => query(inner, request),
        _ => error_response(
            404,
            format!("no route for {} {}", request.method, request.path),
        ),
    }
}

/// `POST /jobs`: body is the raw spec JSON.  Idempotent on the fingerprint:
/// resubmitting a live or done job returns its current status; resubmitting
/// a cancelled (or failed) job resumes its pending cells.
fn submit(inner: &Arc<Inner>, body: &[u8]) -> Response {
    let Ok(text) = core::str::from_utf8(body) else {
        return error_response(400, "spec body is not UTF-8");
    };
    let spec = match CampaignSpec::from_json(text) {
        Ok(spec) => spec,
        Err(e) => return error_response(400, format!("invalid spec: {e}")),
    };
    let fingerprint = spec.fingerprint();

    let mut jobs = inner.jobs.lock().expect("jobs lock");
    if let Some(job) = jobs.get_mut(&fingerprint) {
        let effects = job.resubmit();
        inner.apply(job, effects);
        return Response::json(200, job.status().to_json());
    }

    let campaign = match inner.campaign(&spec) {
        Ok(campaign) => campaign,
        Err(e) => return error_response(400, format!("invalid spec: {e}")),
    };
    // The spec alone is a queued job on disk: a missing `state.json` loads
    // as `queued`.
    if let Err(e) = inner.store.put_spec(&fingerprint, &spec.to_json()) {
        return error_response(500, e.to_string());
    }
    let stored = StoredJob {
        fingerprint: fingerprint.clone(),
        spec,
        state: JobState::Queued,
        cells: Vec::new(),
        torn_lines: 0,
    };
    let (mut job, effects) = Job::submit(stored, campaign);
    inner.apply(&mut job, effects);
    let response = Response::json(201, job.status().to_json());
    jobs.insert(fingerprint, job);
    response
}

/// `DELETE /jobs/{fp}`: cancel (see [`Job::cancel`]).
fn cancel(inner: &Arc<Inner>, fingerprint: &str) -> Response {
    let mut jobs = inner.jobs.lock().expect("jobs lock");
    let Some(job) = jobs.get_mut(fingerprint) else {
        return not_found(fingerprint);
    };
    let effects = job.cancel();
    inner.apply(job, effects);
    Response::json(200, job.status().to_json())
}

/// Pick one statistic off a facet summary.
fn stat_value(summary: &StatSummary, stat: &str) -> Option<f64> {
    Some(match stat {
        "count" => summary.count as f64,
        "mean" => summary.mean,
        "stddev" => summary.stddev,
        "min" => summary.min,
        "max" => summary.max,
        "p10" => summary.p10,
        "p50" => summary.p50,
        "p90" => summary.p90,
        "p99" => summary.p99,
        _ => return None,
    })
}

/// `GET /query`: compare one facet statistic across jobs and grid cells.
fn query(inner: &Arc<Inner>, request: &Request) -> Response {
    let Some(facet) = request.query_param("facet") else {
        return error_response(400, "query needs a `facet` parameter");
    };
    let stat = request.query_param("stat").unwrap_or("mean");
    if stat_value(&StatSummary::of(&[0.0]).expect("non-empty"), stat).is_none() {
        return error_response(400, format!("unknown stat `{stat}`"));
    }
    let wanted_jobs: Vec<String> = request
        .query_param("jobs")
        .map(|list| list.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let matches = |filter: Option<&str>, value: &str| filter.is_none() || filter == Some(value);

    let jobs = inner.jobs.lock().expect("jobs lock");
    let mut rows = Vec::new();
    for (fingerprint, job) in jobs.iter() {
        if !wanted_jobs.is_empty() && !wanted_jobs.iter().any(|fp| fp == fingerprint) {
            continue;
        }
        for group in summaries_of(job.records()) {
            if !matches(request.query_param("graph"), &group.graph)
                || !matches(request.query_param("adversary"), &group.adversary)
                || !matches(request.query_param("compiler"), &group.compiler)
            {
                continue;
            }
            let Some(summary) = group.stat(facet) else {
                continue;
            };
            rows.push(QueryRow {
                job: fingerprint.clone(),
                graph: group.graph.clone(),
                adversary: group.adversary.clone(),
                compiler: group.compiler.clone(),
                value: stat_value(summary, stat).expect("stat validated above"),
            });
        }
    }
    let response = QueryResponse {
        facet: facet.to_string(),
        stat: stat.to_string(),
        rows,
    };
    Response::json(200, response.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api_types::JobStatus;
    use crate::client::Client;
    use crate::store::StoreError;
    use harness::CellRecord;
    use std::time::Instant;

    /// A gate the test holds shut: `append_cells` blocks on it.
    #[derive(Default)]
    struct Latch {
        /// `append_cells` calls still let through.
        open: Mutex<usize>,
        cv: Condvar,
        /// `append_cells` calls that reached the gate.
        arrived: AtomicUsize,
    }

    impl Latch {
        /// Let `appends` more `append_cells` calls through the gate.
        fn allow(&self, appends: usize) {
            let mut open = self.open.lock().unwrap();
            *open = open.saturating_add(appends);
            self.cv.notify_all();
        }
    }

    /// An [`FsStore`] whose appends wait for the test to let them through
    /// the latch; the first `fail_appends` of them then fail.
    struct LatchedStore {
        fs: FsStore,
        latch: Arc<Latch>,
        fail_appends: usize,
    }

    impl Store for LatchedStore {
        fn put_spec(&self, fingerprint: &str, spec_json: &str) -> Result<(), StoreError> {
            self.fs.put_spec(fingerprint, spec_json)
        }
        fn set_state(&self, fingerprint: &str, state: JobState) -> Result<(), StoreError> {
            self.fs.set_state(fingerprint, state)
        }
        fn append_cells(&self, fingerprint: &str, lines: &[String]) -> Result<(), StoreError> {
            let nth = self.latch.arrived.fetch_add(1, Ordering::SeqCst);
            let mut open = self.latch.open.lock().unwrap();
            while *open == 0 {
                open = self.latch.cv.wait(open).unwrap();
            }
            *open -= 1;
            drop(open);
            if nth < self.fail_appends {
                return Err(StoreError {
                    path: PathBuf::from(fingerprint),
                    reason: "injected append failure".to_string(),
                });
            }
            self.fs.append_cells(fingerprint, lines)
        }
        fn load_jobs(&self) -> Result<Vec<StoredJob>, StoreError> {
            self.fs.load_jobs()
        }
    }

    /// Poll `ready` for up to 20 s.
    fn eventually(ready: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !ready() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// The job's status once terminal: a job that never finishes fails the
    /// test after 20 s instead of hanging it.
    fn finished(client: &Client, fp: &str) -> JobStatus {
        assert!(
            eventually(|| client.status(fp).unwrap().state.is_terminal()),
            "job {fp} never finished: {:?}",
            client.status(fp).unwrap()
        );
        client.status(fp).unwrap()
    }

    /// Four cells, so one engine thread runs them as four 1-cell chunks.
    const FOUR_CELLS: &str = r#"{"kind":"campaign-spec","seed":11,"repetitions":4,"grid":{
        "graphs":[{"family":"complete","n":6}],
        "adversaries":[{"kind":"random-mobile","f":1}],
        "compilers":[{"id":"uncompiled"}],
        "payload":{"kind":"exchange-ids"}}}"#;

    /// A one-engine-thread server over a [`LatchedStore`] in a fresh
    /// directory named by `tag`.
    fn latched_server(tag: &str, latch: &Arc<Latch>, fail_appends: usize) -> (Handle, PathBuf) {
        let dir = std::env::temp_dir().join(format!("campaignd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = LatchedStore {
            fs: FsStore::open(&dir).unwrap(),
            latch: Arc::clone(latch),
            fail_appends,
        };
        let mut config = Config::new(&dir);
        config.workers = 1;
        config.quiet = true;
        (start_on(config, Box::new(store)).unwrap(), dir)
    }

    /// The report fingerprint of the one-shot run of `spec`.
    fn one_shot_fingerprint(spec: &CampaignSpec) -> String {
        let lines: String = Campaign::from_spec(spec)
            .unwrap()
            .threads(1)
            .run()
            .cells
            .iter()
            .map(|cell| CellRecord::of(cell).to_json() + "\n")
            .collect();
        harness::json::fnv1a_hex(lines.bytes())
    }

    #[test]
    fn cells_show_only_after_their_append_and_execution_overlaps_it() {
        let spec = CampaignSpec::from_json(FOUR_CELLS).unwrap();
        let fp = spec.fingerprint();
        let one_shot = one_shot_fingerprint(&spec);

        let latch = Arc::new(Latch::default());
        let (handle, dir) = latched_server("latch", &latch, 0);
        let client = Client::new(handle.addr().to_string());
        client.submit(FOUR_CELLS).unwrap();

        // One cell per batch: the committer holds the first in the shut
        // append while the runner runs on into the second.
        assert!(
            eventually(|| latch.arrived.load(Ordering::SeqCst) >= 1 && handle.executed() > 1),
            "the worker stopped behind the held append (executed {})",
            handle.executed()
        );
        let held = client.status(&fp).unwrap();
        assert_eq!(held.cells_done, 0, "a cell showed before its append");
        assert_eq!(held.report_fingerprint, None);
        assert!(!held.state.is_terminal());
        assert_eq!(
            client.trajectory(&fp).unwrap(),
            trajectory_header(&spec) + "\n"
        );
        assert_eq!(client.summary(&fp).unwrap(), "");
        let mut query = crate::api_types::QueryParams::new("network_rounds", "mean");
        query.jobs = vec![fp.clone()];
        assert!(client.query(&query).unwrap().rows.is_empty());

        latch.allow(usize::MAX);
        let done = client.watch(&fp, 25, |_| {}).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.cells_done, spec.cell_count());
        assert_eq!(done.report_fingerprint, Some(one_shot));
        assert_eq!(handle.executed(), spec.cell_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_error_fails_the_job_and_shows_no_cell() {
        let latch = Arc::new(Latch::default());
        latch.allow(usize::MAX);
        let (handle, dir) = latched_server("append-error", &latch, usize::MAX);
        let client = Client::new(handle.addr().to_string());
        let fp = client.submit(FOUR_CELLS).unwrap().fingerprint;
        let failed = client.watch(&fp, 25, |_| {}).unwrap();
        assert_eq!(failed.state, JobState::Failed);
        assert_eq!(failed.cells_done, 0);
        assert!(
            failed
                .error
                .as_deref()
                .is_some_and(|e| e.contains("injected append failure")),
            "{:?}",
            failed.error
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cancel_mid_job_stops_before_the_next_batch_and_a_resubmit_runs_the_rest() {
        let spec = CampaignSpec::from_json(FOUR_CELLS).unwrap();
        let fp = spec.fingerprint();
        // Resubmitted once the runner has stopped, and while it still holds
        // the job.
        for while_held in [false, true] {
            let latch = Arc::new(Latch::default());
            let tag = format!("cancel-mid-job-{while_held}");
            let (handle, dir) = latched_server(&tag, &latch, 0);
            let client = Client::new(handle.addr().to_string());
            client.submit(FOUR_CELLS).unwrap();

            // The committer holds batch 0 in the shut append, batch 1 waits
            // in the channel's slot, and the runner blocks handing over
            // batch 2.
            assert!(
                eventually(|| latch.arrived.load(Ordering::SeqCst) == 1 && handle.executed() == 3),
                "the runner did not stop behind the held append (executed {})",
                handle.executed()
            );
            assert_eq!(client.cancel(&fp).unwrap().state, JobState::Cancelled);
            if while_held {
                // Every missing cell is still claimed, so the resubmit only
                // flips the state back; the runner's next check sees it and
                // runs batch 3.
                assert_eq!(client.submit(FOUR_CELLS).unwrap().state, JobState::Queued);
            }
            latch.allow(usize::MAX);

            if !while_held {
                // The batches executed before the cancel commit; batch 3
                // never runs.
                assert!(eventually(|| client.status(&fp).unwrap().cells_done >= 3));
                let parked = client.status(&fp).unwrap();
                assert_eq!(parked.state, JobState::Cancelled);
                assert_eq!(parked.cells_done, 3);
                assert_eq!(handle.executed(), 3, "a batch ran after the cancel");
                client.submit(FOUR_CELLS).unwrap();
            }

            // Either way the resubmit runs exactly the missing cell.
            let done = finished(&client, &fp);
            assert_eq!(done.state, JobState::Done, "{tag}");
            assert_eq!(done.cells_done, spec.cell_count(), "{tag}");
            assert_eq!(
                handle.executed(),
                spec.cell_count(),
                "{tag}: a cell ran twice"
            );
            assert_eq!(done.report_fingerprint, Some(one_shot_fingerprint(&spec)));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_resubmit_after_a_failed_append_reruns_only_the_dropped_and_unsent_cells() {
        let spec = CampaignSpec::from_json(FOUR_CELLS).unwrap();
        let fp = spec.fingerprint();
        let latch = Arc::new(Latch::default());
        let (handle, dir) = latched_server("failed-append-resubmit", &latch, 1);
        let client = Client::new(handle.addr().to_string());
        client.submit(FOUR_CELLS).unwrap();
        let claimed = || -> Vec<usize> {
            let jobs = handle.inner.jobs.lock().unwrap();
            jobs[&fp].claimed()
        };

        // Batch 0 waits at the gate, batch 1 in the slot, the runner blocks
        // handing over batch 2.
        assert!(
            eventually(|| latch.arrived.load(Ordering::SeqCst) == 1 && handle.executed() == 3),
            "the runner did not stop behind the held append (executed {})",
            handle.executed()
        );
        // Batch 0's append goes through and fails: cell 0 is dropped, the
        // committer holds batches 1 and 2 at the gate, and the runner stops
        // before batch 3 and releases cell 3.
        latch.allow(1);
        assert!(
            eventually(|| {
                latch.arrived.load(Ordering::SeqCst) == 2
                    && client.status(&fp).unwrap().state == JobState::Failed
                    && claimed() == [1, 2]
            }),
            "the failed append did not park the job (claimed {:?})",
            claimed()
        );
        assert_eq!(handle.executed(), 3);

        // Resubmitted while cells 1 and 2 are still in flight: only cells 0
        // and 3 run again.
        assert_eq!(client.submit(FOUR_CELLS).unwrap().state, JobState::Queued);
        latch.allow(usize::MAX);
        let done = finished(&client, &fp);
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.cells_done, spec.cell_count());
        assert_eq!(
            handle.executed(),
            spec.cell_count() + 1,
            "a cell other than the dropped one ran twice"
        );
        assert_eq!(done.report_fingerprint, Some(one_shot_fingerprint(&spec)));
        assert!(claimed().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stat_selector_covers_the_summary_surface() {
        let s = StatSummary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(stat_value(&s, "count"), Some(3.0));
        assert_eq!(stat_value(&s, "mean"), Some(2.0));
        assert_eq!(stat_value(&s, "min"), Some(1.0));
        assert_eq!(stat_value(&s, "max"), Some(3.0));
        assert_eq!(stat_value(&s, "p50"), Some(2.0));
        assert_eq!(stat_value(&s, "median"), None);
    }
}
