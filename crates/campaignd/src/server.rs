//! The campaign server: a durable job queue and in-process worker pool over
//! the deterministic campaign engine, fronted by the std-only HTTP API.
//!
//! # Execution model
//!
//! A submitted [`CampaignSpec`] becomes a durable job keyed by its
//! fingerprint.  The job's pending cells are split into batches using the
//! [`Campaign::shard`] partition (`global index % batch_count`), pushed on
//! an in-memory queue, and drained by a pool of worker threads.  Each worker
//! executes its batch through [`Campaign::run_cells`] — the same entry point
//! the CLI's `--shard`/`--resume` paths use — flattens the cells to
//! [`CellRecord`]s and appends them to the fsync'd store before marking them
//! done in memory.
//!
//! # Determinism contract
//!
//! A cell's seed (and therefore its entire execution) depends only on its
//! global index, so a server-run job is **byte-identical** to the one-shot
//! CLI run of the same spec — same summary and trajectory bytes, same report
//! fingerprint (FNV-1a over the records' `to_json` lines in index order) —
//! regardless of batch size, worker count, restarts, or the order batches
//! happened to complete in.  Every read walks the job's done records in
//! place: summaries through [`summaries_of`], trajectory lines through
//! [`CellRecord::cell_line`], the encoders the CLI writes with.
//!
//! # Crash recovery
//!
//! On startup the store is replayed ([`crate::store`] documents the
//! protocol): fully persisted cells count as done and are **never
//! re-executed**; a torn trailing line re-runs its cell, and so does a
//! record that decodes but does not sit at its grid position (an index past
//! the grid, or a repetition other than `index % repetitions`); non-terminal
//! jobs are requeued with exactly their missing cells.

use crate::api_types::{ApiError, JobList, JobState, JobStatus, QueryResponse, QueryRow};
use crate::http::{self, Request, Response};
use crate::store::{FsStore, Store};
use harness::campaign::summary_json;
use harness::report::{summaries_of, trajectory_header, CellRecord};
use harness::{Campaign, CampaignSpec, StatSummary};
use mobile_congest_harness as harness;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Server configuration.
pub struct Config {
    /// Listen address (`127.0.0.1:0` picks a free port; see
    /// [`Handle::addr`] for the resolved one).
    pub addr: String,
    /// Store root (the `jobs/` tree is created under it).
    pub data_dir: PathBuf,
    /// Worker threads draining the batch queue.  `0` starts none — jobs
    /// queue durably but nothing executes (a testing knob; the binaries
    /// always pass at least 1).
    pub workers: usize,
    /// Threads serving HTTP connections.
    pub http_threads: usize,
    /// Cells per batch (the durability granularity: a batch is fsync'd as
    /// one append).
    pub batch_size: usize,
    /// Suppress stderr diagnostics.
    pub quiet: bool,
}

impl Config {
    /// Defaults: any free loopback port, one worker per core, 2 HTTP
    /// threads, 8-cell batches.
    pub fn new(data_dir: impl Into<PathBuf>) -> Config {
        Config {
            addr: "127.0.0.1:0".to_string(),
            data_dir: data_dir.into(),
            workers: harness::default_threads(),
            http_threads: 2,
            batch_size: 8,
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

/// One unit of queued work: a slice of a job's pending cells.
struct Batch {
    fingerprint: String,
    indices: Vec<usize>,
}

struct Inner {
    store: Box<dyn Store>,
    jobs: Mutex<BTreeMap<String, Job>>,
    /// Signalled on every job state change; long-polling status requests
    /// (`GET /jobs/{fp}?wait_ms=N`) block on it instead of busy-polling.
    jobs_cv: Condvar,
    queue: Mutex<VecDeque<Batch>>,
    queue_cv: Condvar,
    /// Cells executed by the engine in this server process — the
    /// zero-re-execution recovery contract is asserted against this.
    executed: AtomicUsize,
    batch_size: usize,
    /// Upper bound on batches per enqueue: each batch pays a lock round
    /// trip and an fsync'd append, so huge jobs get proportionally bigger
    /// batches rather than proportionally more of them.
    max_batches: usize,
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
}

/// A handle on a started server: the resolved address plus the process-level
/// execution counter.  Dropping the handle does **not** stop the server;
/// the accept loop and workers run until process exit (the server is a
/// daemon, not a scoped task).
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

/// The `Campaign::shard` partition of a pending-index set: batch `b` holds
/// the indices with `index % of == b`.  Batching this way (rather than
/// chunking contiguously) keeps the server's unit of work identical to the
/// CLI's `--shard I/OF`, so every durability and determinism argument about
/// shards carries over verbatim.
pub fn shard_batches(pending: &[usize], of: usize) -> Vec<Vec<usize>> {
    let of = of.max(1);
    let mut batches: Vec<Vec<usize>> = vec![Vec::new(); of];
    for &index in pending {
        batches[index % of].push(index);
    }
    batches.retain(|b| !b.is_empty());
    batches
}

/// Start a server: open (and replay) the store, bind the listener, spawn
/// the worker pool and the HTTP threads.
pub fn start(config: Config) -> Result<Handle, String> {
    let store = FsStore::open(&config.data_dir).map_err(|e| e.to_string())?;
    let inner = Arc::new(Inner {
        store: Box::new(store),
        jobs: Mutex::new(BTreeMap::new()),
        jobs_cv: Condvar::new(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        executed: AtomicUsize::new(0),
        batch_size: config.batch_size.max(1),
        max_batches: (config.workers.max(1) * 4).max(8),
        quiet: config.quiet,
        artifact_cache: Arc::new(harness::ArtifactCache::new()),
    });

    recover(&inner).map_err(|e| format!("recovery failed: {e}"))?;

    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    for worker in 0..config.workers {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name(format!("campaignd-worker-{worker}"))
            .spawn(move || worker_loop(&inner))
            .map_err(|e| format!("cannot spawn worker: {e}"))?;
    }

    // Bounded connection hand-off: the accept loop blocks once every HTTP
    // thread is busy and the channel is full, instead of queueing unboundedly.
    let (tx, rx) = mpsc::sync_channel::<std::net::TcpStream>(64);
    let rx = Arc::new(Mutex::new(rx));
    for worker in 0..config.http_threads.max(1) {
        let inner = Arc::clone(&inner);
        let rx = Arc::clone(&rx);
        std::thread::Builder::new()
            .name(format!("campaignd-http-{worker}"))
            .spawn(move || loop {
                let stream = match rx.lock().expect("http rx lock").recv() {
                    Ok(stream) => stream,
                    Err(_) => return,
                };
                serve_connection(&inner, stream);
            })
            .map_err(|e| format!("cannot spawn http thread: {e}"))?;
    }
    std::thread::Builder::new()
        .name("campaignd-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming().flatten() {
                if tx.send(stream).is_err() {
                    return;
                }
            }
        })
        .map_err(|e| format!("cannot spawn accept loop: {e}"))?;

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
        let campaign = Arc::new(
            Campaign::from_spec(&job.spec)
                .map_err(|e| format!("job {}: {e}", job.fingerprint))?
                .threads(1)
                .artifact_cache(Arc::clone(&inner.artifact_cache)),
        );
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
        let mut entry = Job {
            spec: job.spec,
            campaign,
            state: job.state,
            done,
            counts,
            report_fingerprint: None,
            error: None,
        };
        if entry.state == JobState::Done {
            entry.report_fingerprint = Some(fingerprint_of(&entry));
        }
        if !entry.state.is_terminal() {
            let pending = pending_indices(&entry);
            if pending.is_empty() {
                finalize(inner, &job.fingerprint, &mut entry);
                inner.log(format!(
                    "recovered job {}: {} cells done, already complete — finalized",
                    job.fingerprint,
                    entry.done.len()
                ));
            } else {
                entry.state = JobState::Queued;
                let batches = enqueue_pending(inner, &job.fingerprint, &pending);
                inner.log(format!(
                    "recovered job {}: {} cells done, requeued {} cell(s) in {} batch(es)",
                    job.fingerprint,
                    entry.done.len(),
                    pending.len(),
                    batches
                ));
            }
        }
        jobs.insert(job.fingerprint, entry);
    }
    Ok(())
}

/// The cells of the full grid not yet in the done map, in index order.
fn pending_indices(job: &Job) -> Vec<usize> {
    job.campaign
        .cell_indices()
        .into_iter()
        .filter(|i| !job.done.contains_key(i))
        .collect()
}

/// Queue the pending cells as shard batches; returns the batch count.
/// Callers must hold no queue lock and should notify after mutating jobs.
fn enqueue_pending(inner: &Inner, fingerprint: &str, pending: &[usize]) -> usize {
    let of = pending
        .len()
        .div_ceil(inner.batch_size)
        .clamp(1, inner.max_batches);
    let batches = shard_batches(pending, of);
    let count = batches.len();
    let mut queue = inner.queue.lock().expect("queue lock");
    for indices in batches {
        queue.push_back(Batch {
            fingerprint: fingerprint.to_string(),
            indices,
        });
    }
    drop(queue);
    inner.queue_cv.notify_all();
    count
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

/// Complete a job: persist the summary, flip the state to done, cache the
/// report fingerprint.  Caller holds the jobs lock.
fn finalize(inner: &Inner, fingerprint: &str, job: &mut Job) {
    if let Err(e) = inner
        .store
        .put_summary(fingerprint, &summary_jsonl(job))
        .and_then(|()| inner.store.set_state(fingerprint, JobState::Done))
    {
        fail_job(inner, fingerprint, job, e.to_string());
        return;
    }
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

/// Worker thread: drain batches forever.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let batch = {
            let mut queue = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(batch) = queue.pop_front() {
                    break batch;
                }
                queue = inner.queue_cv.wait(queue).expect("queue wait");
            }
        };
        process_batch(inner, batch);
    }
}

/// Execute one batch: re-check the job, run the still-missing cells through
/// the engine, persist, account.
fn process_batch(inner: &Arc<Inner>, batch: Batch) {
    let (campaign, todo) = {
        let mut jobs = inner.jobs.lock().expect("jobs lock");
        let Some(job) = jobs.get_mut(&batch.fingerprint) else {
            return;
        };
        // Cancelled (or failed) between enqueue and pickup: drop the batch.
        if job.state.is_terminal() {
            return;
        }
        let todo: Vec<usize> = batch
            .indices
            .iter()
            .copied()
            .filter(|i| !job.done.contains_key(i))
            .collect();
        if todo.is_empty() {
            if pending_indices(job).is_empty() {
                finalize(inner, &batch.fingerprint, job);
            }
            return;
        }
        if job.state != JobState::Running {
            job.state = JobState::Running;
            if let Err(e) = inner.store.set_state(&batch.fingerprint, JobState::Running) {
                fail_job(inner, &batch.fingerprint, job, e.to_string());
                return;
            }
        }
        (Arc::clone(&job.campaign), todo)
    };

    // The actual work happens outside every lock — including the record
    // encode, which is done exactly once per cell and reused for both the
    // durable append and the finished-report fingerprint.
    let report = campaign.run_cells(&todo);
    let cells: Vec<DoneCell> = report
        .cells
        .iter()
        .map(|cell| {
            let record = CellRecord::of(cell);
            let line = record.to_json();
            DoneCell { record, line }
        })
        .collect();
    let lines: Vec<String> = cells.iter().map(|d| d.line.clone()).collect();
    inner.executed.fetch_add(cells.len(), Ordering::SeqCst);

    // Durability before visibility: the fsync'd append happens before the
    // cells are marked done in memory.
    let append = inner.store.append_cells(&batch.fingerprint, &lines);
    let mut jobs = inner.jobs.lock().expect("jobs lock");
    let Some(job) = jobs.get_mut(&batch.fingerprint) else {
        return;
    };
    if let Err(e) = append {
        fail_job(inner, &batch.fingerprint, job, e.to_string());
        return;
    }
    for cell in cells {
        if let std::collections::btree_map::Entry::Vacant(slot) = job.done.entry(cell.record.index)
        {
            tally(&mut job.counts, &cell.record);
            slot.insert(cell);
        }
    }
    if !job.state.is_terminal() && pending_indices(job).is_empty() {
        finalize(inner, &batch.fingerprint, job);
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
            let pending = pending_indices(job);
            if pending.is_empty() {
                finalize(inner, &fingerprint, job);
            } else {
                job.state = JobState::Queued;
                job.error = None;
                if let Err(e) = inner.store.set_state(&fingerprint, JobState::Queued) {
                    fail_job(inner, &fingerprint, job, e.to_string());
                    return Response::json(200, status_of(&fingerprint, job).to_json());
                }
                let batches = enqueue_pending(inner, &fingerprint, &pending);
                inner.log(format!(
                    "job {fingerprint} resumed: requeued {} cell(s) in {batches} batch(es)",
                    pending.len()
                ));
            }
        }
        return Response::json(200, status_of(&fingerprint, job).to_json());
    }

    let campaign = match Campaign::from_spec(&spec) {
        Ok(campaign) => Arc::new(
            campaign
                .threads(1)
                .artifact_cache(Arc::clone(&inner.artifact_cache)),
        ),
        Err(e) => return error_response(400, format!("invalid spec: {e}")),
    };
    if let Err(e) = inner
        .store
        .put_spec(&fingerprint, &spec.to_json())
        .and_then(|()| inner.store.set_state(&fingerprint, JobState::Queued))
    {
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
    };
    let pending = pending_indices(&job);
    let batches = enqueue_pending(inner, &fingerprint, &pending);
    inner.log(format!(
        "job {fingerprint} submitted: {} cells in {batches} batch(es)",
        pending.len()
    ));
    let response = Response::json(201, status_of(&fingerprint, &job).to_json());
    jobs.insert(fingerprint, job);
    response
}

/// `DELETE /jobs/{fp}`: cancel.  Already-stored cells stay durable; queued
/// batches are purged; a later resubmission resumes from what is stored.
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
        let mut queue = inner.queue.lock().expect("queue lock");
        queue.retain(|batch| batch.fingerprint != fingerprint);
        drop(queue);
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

    #[test]
    fn shard_batches_partition_like_campaign_shard() {
        // The full grid, batched: exactly the `index % of` partition.
        let pending: Vec<usize> = (0..10).collect();
        let batches = shard_batches(&pending, 3);
        assert_eq!(batches[0], vec![0, 3, 6, 9]);
        assert_eq!(batches[1], vec![1, 4, 7]);
        assert_eq!(batches[2], vec![2, 5, 8]);
        // A sparse pending set (resume): empty batches drop out, the
        // partition rule is unchanged.
        let sparse = [1usize, 5, 9];
        let batches = shard_batches(&sparse, 4);
        assert_eq!(batches, vec![vec![1, 5, 9]]);
        // Degenerate: of=0 is clamped.
        assert_eq!(shard_batches(&[0], 0), vec![vec![0]]);
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
