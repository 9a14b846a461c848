//! The campaign server: a durable job queue over the deterministic campaign
//! engine, fronted by the std-only HTTP API.
//!
//! # Execution model
//!
//! A submitted [`CampaignSpec`] becomes a durable job keyed by its
//! fingerprint, and the fingerprint joins a FIFO of runnable jobs.  One
//! runner thread drains that FIFO.  For each job it takes the pending cells
//! once, in index order, and runs them as at most eight contiguous batches
//! (`batch_plan`), each through [`Campaign::run_cells`] — the entry point
//! the CLI's `--shard`/`--resume` paths use — on the job's `workers` engine
//! threads, so parallelism comes from the engine's work stealing.  Before
//! each batch the runner re-checks the job's state under the jobs lock: a
//! job cancelled (or failed) since stops there, which is the whole cancel
//! mechanism.  The cells a runner took stay claimed until their batch's
//! append returns or the runner stops before sending them, and a
//! resubmission schedules the job only for missing cells nobody claims.
//! The runner flattens each executed cell to a [`CellRecord`],
//! encodes it once, and hands the batch to the committer thread over a
//! one-slot channel, then starts its next batch.  The committer appends
//! each batch to the job's fsync'd log as it arrives, in one call outside
//! the jobs lock, and only once that append returned `Ok` marks the cells
//! done in memory (durability before visibility).  So the fsync overlaps
//! the next batch's execution.
//!
//! The durability granularity is the batch: a crash loses at most the
//! batch in flight (≤ ⌈pending / 8⌉ cells) plus what waits at the
//! committer, which the one-slot channel bounds to the batch being
//! appended and one behind it.
//!
//! A job's durable record is its spec (written at submission) and its
//! cells (one append per batch).  A state is written only to park a job
//! (`cancelled`, `failed`) or to unpark it (`queued`); `done` is never
//! written: a job is done when its log holds a record for every grid cell.
//!
//! # Determinism contract
//!
//! A cell's seed (and therefore its entire execution) depends only on its
//! global index, so a server-run job is **byte-identical** to the one-shot
//! CLI run of the same spec — same summary and trajectory bytes, same report
//! fingerprint (FNV-1a over the records' `to_json` lines in index order) —
//! regardless of batching, engine threads, restarts, or the order batches
//! happened to commit in.  Every read walks the job's done records in
//! place: summaries through [`summaries_of`], trajectory lines through
//! [`CellRecord::cell_line`], the encoders the CLI writes with.
//!
//! # Crash recovery
//!
//! On startup the store is replayed ([`crate::store`] documents the
//! protocol): fully persisted cells count as done and are **never
//! re-executed**; a torn trailing line re-runs its cell, and so does a
//! record that decodes but does not sit at its grid position (an index past
//! the grid, or a repetition other than `index % repetitions`).  Then one
//! rule covers every stored job: a `cancelled` or `failed` job stays parked;
//! any other (`queued`, or `running` and `done` from older stores) is done
//! when every grid cell has a record, and is otherwise requeued with exactly
//! its missing cells.

use crate::api_types::{ApiError, JobList, JobState, JobStatus, QueryResponse, QueryRow};
use crate::http::{self, Request, Response};
use crate::store::{FsStore, Store};
use harness::campaign::summary_json;
use harness::report::{summaries_of, trajectory_header, CellRecord};
use harness::{Campaign, CampaignSpec, StatSummary};
use mobile_congest_harness as harness;
use std::collections::{BTreeMap, BTreeSet};
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

/// A completed cell: the typed record plus its canonical
/// [`CellRecord::to_json`] line, cached from the append so finalizing
/// (fingerprinting) a job never re-encodes every record.
struct DoneCell {
    record: CellRecord,
    line: String,
}

/// One live job.
struct Job {
    spec: CampaignSpec,
    campaign: Arc<Campaign>,
    state: JobState,
    done: BTreeMap<usize, DoneCell>,
    /// Running executed/skipped/failed/disagreement tallies, updated as
    /// records land so status polls never rescan the cell map.
    counts: (usize, usize, usize, usize),
    /// Cached once the job finalizes (recomputing is O(cells)).
    report_fingerprint: Option<String>,
    error: Option<String>,
    /// Cells the runner took at pickup and has not yet seen through the
    /// committer.  A cell leaves when its batch's append returns (done, or
    /// dropped by a failed append) or when the runner stops before sending
    /// it.  Only missing cells outside this set are scheduled again, so a
    /// resubmission neither re-runs a cell in flight nor strands one.
    claimed: BTreeSet<usize>,
}

/// Fold one record into a job's executed / skipped / failed / disagreement
/// tallies.
fn tally(counts: &mut (usize, usize, usize, usize), record: &CellRecord) {
    match &record.outcome {
        harness::RecordOutcome::Ok { agrees, .. } => {
            counts.0 += 1;
            if *agrees == Some(false) {
                counts.3 += 1;
            }
        }
        harness::RecordOutcome::Skipped { .. } => counts.1 += 1,
        harness::RecordOutcome::Failed { .. } => counts.2 += 1,
    }
}

/// An executed batch waiting for the committer: its cells, encoded once.
struct Executed {
    fingerprint: String,
    cells: Vec<DoneCell>,
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
    commits: mpsc::SyncSender<Executed>,
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

    /// Put a job on the runnable FIFO.
    fn schedule(&self, fingerprint: &str) {
        // Without a runner (`workers: 0`) the receiver is gone and the job
        // only stays queued.
        let _ = self.runnable.send(fingerprint.to_string());
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

/// The runner's batches of a job's pending cells (ascending): contiguous
/// slices of `⌈pending / 8⌉` cells, so a job has at most eight.
fn batch_plan(pending: &[usize]) -> std::slice::Chunks<'_, usize> {
    pending.chunks(pending.len().div_ceil(8).max(1))
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
                for executed in incoming {
                    commit(&inner, executed);
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

/// Replay the store into the in-memory job map and requeue unfinished work.
fn recover(inner: &Arc<Inner>) -> Result<(), String> {
    let stored = inner.store.load_jobs().map_err(|e| e.to_string())?;
    let mut jobs = inner.jobs.lock().expect("jobs lock");
    for job in stored {
        let campaign = inner
            .campaign(&job.spec)
            .map_err(|e| format!("job {}: {e}", job.fingerprint))?;
        let total = campaign.cell_count();
        let mut done = BTreeMap::new();
        let mut counts = (0, 0, 0, 0);
        let mut torn = job.torn_lines;
        for record in job.cells {
            // A record that decodes but does not sit at its grid position
            // (past the grid, or at another repetition than the enumeration
            // gives its index) would split or invent a summary group: it is
            // as good as torn, and its cell re-runs.
            if record.index >= total || record.repetition != record.index % job.spec.repetitions {
                torn += 1;
                continue;
            }
            if let std::collections::btree_map::Entry::Vacant(slot) = done.entry(record.index) {
                tally(&mut counts, &record);
                let line = record.to_json();
                slot.insert(DoneCell { record, line });
            }
        }
        if torn > 0 {
            inner.log(format!(
                "job {}: skipped {torn} torn log line(s); their cells will re-run",
                job.fingerprint
            ));
        }
        let parked = matches!(job.state, JobState::Cancelled | JobState::Failed);
        let mut entry = Job {
            spec: job.spec,
            campaign,
            state: if parked { job.state } else { JobState::Queued },
            done,
            counts,
            report_fingerprint: None,
            error: None,
            claimed: BTreeSet::new(),
        };
        // Whatever else the store says (`queued`, or an older server's
        // `running` or `done`), the log decides whether the job is done.
        if !parked {
            let pending = pending_indices(&entry);
            if pending.is_empty() {
                entry.report_fingerprint = Some(fingerprint_of(&entry));
                entry.state = JobState::Done;
            } else {
                inner.schedule(&job.fingerprint);
                inner.log(format!(
                    "recovered job {}: {} cells done, requeued {} cell(s)",
                    job.fingerprint,
                    entry.done.len(),
                    pending.len()
                ));
            }
        }
        jobs.insert(job.fingerprint, entry);
    }
    Ok(())
}

/// The cells of the full grid neither done nor claimed by the runner, in
/// index order.
fn pending_indices(job: &Job) -> Vec<usize> {
    job.campaign
        .cell_indices()
        .into_iter()
        .filter(|i| !job.done.contains_key(i) && !job.claimed.contains(i))
        .collect()
}

/// Whether every cell of the grid is done.
fn complete(job: &Job) -> bool {
    job.done.len() == job.campaign.cell_count()
}

/// The job's summary block (one `kind:"summary"` line per grid cell) over
/// its done records in index order — the CLI's stdout for the same cells.
fn summary_jsonl(job: &Job) -> String {
    summaries_of(job.done.values().map(|d| &d.record))
        .iter()
        .map(|summary| summary_json(summary) + "\n")
        .collect()
}

/// The report fingerprint of a job's done cells: FNV-1a over one `to_json`
/// line per cell, each followed by a newline, in index order — streamed
/// over the cached encoded lines, without re-serializing any record.
fn fingerprint_of(job: &Job) -> String {
    harness::json::fnv1a_hex(
        job.done
            .values()
            .flat_map(|d| d.line.bytes().chain(std::iter::once(b'\n'))),
    )
}

/// Complete a job: cache the report fingerprint.  Nothing is stored — a
/// job whose log holds every cell recovers as done.  Caller holds the jobs
/// lock.
fn finalize(inner: &Inner, fingerprint: &str, job: &mut Job) {
    job.report_fingerprint = Some(fingerprint_of(job));
    job.state = JobState::Done;
    inner.jobs_cv.notify_all();
    inner.log(format!(
        "job {fingerprint} done: {} cells, report fingerprint {}",
        job.done.len(),
        job.report_fingerprint.as_deref().unwrap_or(""),
    ));
}

/// Mark a job failed (a store error — execution itself cannot fail the
/// job; cell-level failures are recorded outcomes).  Caller holds the lock.
fn fail_job(inner: &Inner, fingerprint: &str, job: &mut Job, error: String) {
    inner.log(format!("job {fingerprint} failed: {error}"));
    job.state = JobState::Failed;
    job.error = Some(error);
    inner.jobs_cv.notify_all();
    // Best-effort: if the store is broken this may fail too; the in-memory
    // state still reports the failure.
    let _ = inner.store.set_state(fingerprint, JobState::Failed);
}

/// Run one job's pending cells, claimed once at pickup, batch by batch
/// through the engine, each executed batch to the committer.
fn run_job(inner: &Inner, fingerprint: &str) {
    let (campaign, pending) = {
        let mut jobs = inner.jobs.lock().expect("jobs lock");
        let job = jobs.get_mut(fingerprint).expect("jobs are never removed");
        let pending = pending_indices(job);
        job.claimed.extend(&pending);
        (Arc::clone(&job.campaign), pending)
    };
    let mut unsent = &pending[..];
    for batch in batch_plan(&pending) {
        {
            let mut jobs = inner.jobs.lock().expect("jobs lock");
            let job = jobs.get_mut(fingerprint).expect("jobs are never removed");
            // Cancelled (or failed) since the last batch: release the rest
            // to a resubmission and stop.
            if job.state.is_terminal() {
                for index in unsent {
                    job.claimed.remove(index);
                }
                return;
            }
            // In memory only: recovery requeues `queued` and `running` alike.
            job.state = JobState::Running;
        }
        // The actual work happens outside every lock — including the record
        // encode, which is done exactly once per cell and reused for both the
        // durable append and the finished-report fingerprint.
        let cells: Vec<DoneCell> = campaign
            .run_cells(batch)
            .cells
            .iter()
            .map(|cell| {
                let record = CellRecord::of(cell);
                let line = record.to_json();
                DoneCell { record, line }
            })
            .collect();
        inner.executed.fetch_add(cells.len(), Ordering::SeqCst);
        inner
            .commits
            .send(Executed {
                fingerprint: fingerprint.to_string(),
                cells,
            })
            .expect("the committer runs until process exit");
        unsent = &unsent[batch.len()..];
    }
}

/// Persist one executed batch, then publish its cells: durability before
/// visibility — the fsync'd append returns before the jobs lock is taken
/// and the cells are marked done in memory.
fn commit(inner: &Inner, executed: Executed) {
    let (records, lines): (Vec<CellRecord>, Vec<String>) = executed
        .cells
        .into_iter()
        .map(|d| (d.record, d.line))
        .unzip();
    let append = inner.store.append_cells(&executed.fingerprint, &lines);
    let mut jobs = inner.jobs.lock().expect("jobs lock");
    let Some(job) = jobs.get_mut(&executed.fingerprint) else {
        return;
    };
    for record in &records {
        job.claimed.remove(&record.index);
    }
    if let Err(e) = append {
        fail_job(inner, &executed.fingerprint, job, e.to_string());
        return;
    }
    for (record, line) in records.into_iter().zip(lines) {
        if let std::collections::btree_map::Entry::Vacant(slot) = job.done.entry(record.index) {
            tally(&mut job.counts, &record);
            slot.insert(DoneCell { record, line });
        }
    }
    if !job.state.is_terminal() && complete(job) {
        finalize(inner, &executed.fingerprint, job);
    }
}

/// The status document of one job.  Caller holds the jobs lock.  Built
/// from the running tallies — no scan of the cell map, so status polls
/// stay O(1) however large the job is.
fn status_of(fingerprint: &str, job: &Job) -> JobStatus {
    let (executed, skipped, failed, disagreements) = job.counts;
    JobStatus {
        fingerprint: fingerprint.to_string(),
        state: job.state,
        cells_total: job.campaign.cell_count(),
        cells_done: job.done.len(),
        executed,
        skipped,
        failed,
        disagreements,
        report_fingerprint: job.report_fingerprint.clone(),
        error: job.error.clone(),
    }
}

fn serve_connection(inner: &Arc<Inner>, mut stream: std::net::TcpStream) {
    // Long-polls wait after the read, so the timeouts never cut them short.
    let _ = stream.set_read_timeout(Some(http::IO_TIMEOUT));
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
                jobs: jobs.iter().map(|(fp, job)| status_of(fp, job)).collect(),
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
            while wait_ms > 0 && matches!(jobs.get(*fp), Some(job) if !job.state.is_terminal()) {
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
                Some(job) => Response::json(200, status_of(fp, job).to_json()),
                None => not_found(fp),
            }
        }
        ("GET", ["jobs", fp, "summary"]) => {
            let jobs = inner.jobs.lock().expect("jobs lock");
            match jobs.get(*fp) {
                Some(job) => Response::text(200, summary_jsonl(job)),
                None => not_found(fp),
            }
        }
        ("GET", ["jobs", fp, "trajectory"]) => {
            let jobs = inner.jobs.lock().expect("jobs lock");
            match jobs.get(*fp) {
                Some(job) => {
                    let mut text = trajectory_header(&job.spec);
                    text.push('\n');
                    for done in job.done.values() {
                        text.push_str(&done.record.cell_line());
                        text.push('\n');
                    }
                    Response::text(200, text)
                }
                None => not_found(fp),
            }
        }
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
        if matches!(job.state, JobState::Cancelled | JobState::Failed) {
            // Unparked on disk first, so a restart cannot bring the parked
            // state back — even for a complete job, which finalizes now.
            if let Err(e) = inner.store.set_state(&fingerprint, JobState::Queued) {
                fail_job(inner, &fingerprint, job, e.to_string());
                return Response::json(200, status_of(&fingerprint, job).to_json());
            }
            job.error = None;
            if complete(job) {
                finalize(inner, &fingerprint, job);
            } else {
                job.state = JobState::Queued;
                // Claimed cells are already on their way through the runner
                // (whose next state check sees `queued`) and the committer:
                // only the unclaimed missing ones need the job rescheduled.
                let pending = pending_indices(job);
                if !pending.is_empty() {
                    inner.schedule(&fingerprint);
                }
                inner.log(format!(
                    "job {fingerprint} resumed: requeued {} cell(s)",
                    pending.len()
                ));
            }
        }
        return Response::json(200, status_of(&fingerprint, job).to_json());
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
    let job = Job {
        spec,
        campaign,
        state: JobState::Queued,
        done: BTreeMap::new(),
        counts: (0, 0, 0, 0),
        report_fingerprint: None,
        error: None,
        claimed: BTreeSet::new(),
    };
    inner.schedule(&fingerprint);
    inner.log(format!(
        "job {fingerprint} submitted: {} cells",
        job.campaign.cell_count()
    ));
    let response = Response::json(201, status_of(&fingerprint, &job).to_json());
    jobs.insert(fingerprint, job);
    response
}

/// `DELETE /jobs/{fp}`: cancel.  Already-stored cells stay durable; the
/// runner stops before the job's next batch; a later resubmission resumes
/// from what is stored.
fn cancel(inner: &Arc<Inner>, fingerprint: &str) -> Response {
    let mut jobs = inner.jobs.lock().expect("jobs lock");
    let Some(job) = jobs.get_mut(fingerprint) else {
        return not_found(fingerprint);
    };
    if !job.state.is_terminal() {
        job.state = JobState::Cancelled;
        if let Err(e) = inner.store.set_state(fingerprint, JobState::Cancelled) {
            fail_job(inner, fingerprint, job, e.to_string());
            return Response::json(200, status_of(fingerprint, job).to_json());
        }
        inner.jobs_cv.notify_all();
        inner.log(format!("job {fingerprint} cancelled"));
    }
    Response::json(200, status_of(fingerprint, job).to_json())
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
        for group in summaries_of(job.done.values().map(|d| &d.record)) {
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
    use crate::client::Client;
    use crate::store::{StoreError, StoredJob};
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

    /// Four cells, so the batch plan makes four 1-cell batches.
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
            jobs[&fp].claimed.iter().copied().collect()
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
    fn a_job_runs_in_at_most_eight_contiguous_ascending_batches() {
        for (pending, batches, largest) in [(4, 4, 1), (27, 7, 4), (540, 8, 68), (5400, 8, 675)] {
            let cells: Vec<usize> = (0..pending).collect();
            let plan: Vec<&[usize]> = batch_plan(&cells).collect();
            assert_eq!(plan.len(), batches, "{pending} pending");
            assert_eq!(plan.iter().map(|b| b.len()).max(), Some(largest));
            assert_eq!(plan.concat(), cells, "{pending} pending");
        }
        // A resume's sparse pending set: slices of it, in its order.
        let sparse: Vec<usize> = (1..40).step_by(3).collect();
        let plan: Vec<&[usize]> = batch_plan(&sparse).collect();
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.concat(), sparse);
        assert_eq!(batch_plan(&[]).count(), 0);
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
