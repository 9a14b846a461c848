//! Integration tests for the campaign server (`mobile_congest::campaignd`):
//! the determinism contract (a server-run campaign is byte-identical to the
//! one-shot CLI run), crash recovery with zero re-execution, cancel/resume,
//! the typed API errors, and the cross-job query endpoint.
//!
//! Every test starts a real server on `127.0.0.1:0` and talks to it over
//! real sockets through the typed [`Client`] — the same path `campaignctl`
//! and CI use.

use mobile_congest::campaignd::api_types::QueryParams;
use mobile_congest::campaignd::client::Client;
use mobile_congest::campaignd::server::{shard_batches, start, Config, Handle};
use mobile_congest::campaignd::store::{FsStore, Store};
use mobile_congest::campaignd::JobState;
use mobile_congest::harness::campaign::{cell_json, summary_json};
use mobile_congest::harness::json::fnv1a_hex;
use mobile_congest::harness::report::{trajectory_header, CellRecord};
use mobile_congest::harness::{Campaign, CampaignReport, CampaignSpec};
use std::path::PathBuf;

fn spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/e16-small.json");
    std::fs::read_to_string(path).expect("specs/e16-small.json is checked in")
}

/// The one-shot `campaign` CLI run of a spec, through the CLI's own
/// encoders: what the server must serve back byte for byte.
struct OneShot {
    report: CampaignReport,
    /// The `--out` file: `trajectory_header` + one `cell_json` line per cell.
    trajectory: String,
    /// Stdout: one `summary_json` line per grid cell.
    summary: String,
    /// FNV-1a over one `CellRecord::to_json` line per cell, in index order.
    report_fingerprint: String,
}

fn one_shot(spec: &CampaignSpec) -> OneShot {
    let report = Campaign::from_spec(spec).unwrap().threads(1).run();
    let mut trajectory = trajectory_header(spec) + "\n";
    let mut records = String::new();
    for cell in &report.cells {
        trajectory.push_str(&cell_json(cell));
        trajectory.push('\n');
        records.push_str(&CellRecord::of(cell).to_json());
        records.push('\n');
    }
    let summary = report
        .summaries()
        .iter()
        .map(|s| summary_json(s) + "\n")
        .collect();
    OneShot {
        report,
        trajectory,
        summary,
        report_fingerprint: fnv1a_hex(records.bytes()),
    }
}

/// A fresh per-test data dir under the system temp root.
fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaignd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Start a server with `workers` worker threads on an ephemeral port and
/// hand back its handle plus a client bound to it.
fn server_on(data_dir: &PathBuf, workers: usize) -> (Handle, Client) {
    let mut config = Config::new(data_dir);
    config.workers = workers;
    config.quiet = true;
    let handle = start(config).expect("server starts");
    let client = Client::new(handle.addr().to_string());
    (handle, client)
}

#[test]
fn server_run_is_byte_identical_to_the_one_shot_run_and_query_sees_it() {
    let text = spec_text();
    let spec = CampaignSpec::from_json(&text).unwrap();
    let expected = one_shot(&spec);

    let data_dir = temp_data_dir("determinism");
    let (_handle, client) = server_on(&data_dir, 1);
    let submitted = client.submit(&text).unwrap();
    assert_eq!(submitted.fingerprint, spec.fingerprint());
    assert_eq!(submitted.cells_total, spec.cell_count());

    let done = client.watch(&submitted.fingerprint, 25, |_| {}).unwrap();
    assert_eq!(done.state, JobState::Done);
    assert_eq!(done.cells_done, spec.cell_count());

    // The determinism contract: the server's job is byte-identical — same
    // report fingerprint, same summary and trajectory bytes — to the
    // one-shot CLI run.
    assert_eq!(done.report_fingerprint, Some(expected.report_fingerprint));
    assert_eq!(client.summary(&done.fingerprint).unwrap(), expected.summary);
    assert_eq!(
        client.trajectory(&done.fingerprint).unwrap(),
        expected.trajectory
    );

    // The status counters add up to the CLI's summary counts.
    let mut counts = (0, 0, 0, 0);
    for s in expected.report.summaries() {
        counts.0 += s.executed;
        counts.1 += s.skipped;
        counts.2 += s.failed;
        counts.3 += s.disagreements;
    }
    assert_eq!(
        (done.executed, done.skipped, done.failed, done.disagreements),
        counts
    );

    // The query endpoint sees the finished job and honours its filters.
    let mut params = QueryParams::new("overhead", "p50");
    params.compiler = Some("uncompiled".to_string());
    let response = client.query(&params).unwrap();
    assert!(!response.rows.is_empty(), "query returned no rows");
    assert!(response.rows.iter().all(|r| r.compiler == "uncompiled"));
    assert!(response
        .rows
        .iter()
        .all(|r| r.job == done.fingerprint && r.value.is_finite()));

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn killed_server_resumes_without_reexecuting_completed_cells() {
    let text = spec_text();
    let spec = CampaignSpec::from_json(&text).unwrap();
    let fingerprint = spec.fingerprint();
    let campaign = Campaign::from_spec(&spec).unwrap().threads(1);
    let total = campaign.cell_count();

    // What a crashed server would have left behind: the spec, a `running`
    // state, the even cells fully persisted, and a torn trailing line (a
    // partial write of cell 1 interrupted mid-append).
    let evens: Vec<usize> = (0..total).step_by(2).collect();
    let done_lines: Vec<String> = campaign
        .run_cells(&evens)
        .cells
        .iter()
        .map(|cell| CellRecord::of(cell).to_json())
        .collect();
    let data_dir = temp_data_dir("recovery");
    let store = FsStore::open(&data_dir).unwrap();
    store.put_spec(&fingerprint, &spec.to_json()).unwrap();
    store.set_state(&fingerprint, JobState::Running).unwrap();
    store.append_cells(&fingerprint, &done_lines).unwrap();
    {
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(data_dir.join("jobs").join(&fingerprint).join("cells.log"))
            .unwrap();
        write!(log, "{{\"kind\":\"cell-record\",\"index\":1,\"gra").unwrap();
    }
    drop(store);

    // Restart: recovery must requeue exactly the odd cells (the torn cell
    // never persisted, so it re-runs) and never touch the persisted evens.
    let (handle, client) = server_on(&data_dir, 1);
    let done = client.watch(&fingerprint, 25, |_| {}).unwrap();
    assert_eq!(done.state, JobState::Done);
    assert_eq!(done.cells_done, total);
    assert_eq!(
        handle.executed(),
        total - evens.len(),
        "a recovered server must execute exactly the missing cells"
    );

    // And the resumed result is still byte-identical to the one-shot run.
    let expected = one_shot(&spec);
    assert_eq!(
        done.report_fingerprint.as_ref(),
        Some(&expected.report_fingerprint)
    );
    assert_eq!(client.summary(&fingerprint).unwrap(), expected.summary);

    // A second restart serves the same finished job from disk alone: the
    // requeued cells' first batch must not have been glued onto the torn
    // fragment, or that record would be lost to a job that never re-runs.
    let (again, client) = server_on(&data_dir, 1);
    let served = client.status(&fingerprint).unwrap();
    assert_eq!(served.state, JobState::Done);
    assert_eq!(served.cells_done, total);
    assert_eq!(again.executed(), 0, "a finished job never re-runs");
    assert_eq!(served.report_fingerprint, Some(expected.report_fingerprint));
    assert_eq!(
        client.trajectory(&fingerprint).unwrap(),
        expected.trajectory
    );

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn a_log_line_with_an_impossible_repetition_is_rerun_not_served() {
    let text = spec_text();
    let spec = CampaignSpec::from_json(&text).unwrap();
    let fingerprint = spec.fingerprint();
    let expected = one_shot(&spec);

    // Every cell is on disk, but one line claims a repetition beyond its
    // index — impossible in the enumeration order, and poison for the
    // summary grouping (`index - repetition`), which used to panic under the
    // jobs lock in a debug build and group on a wrapped key in release.
    const BAD: usize = 4;
    let lines: Vec<String> = expected
        .report
        .cells
        .iter()
        .map(|cell| {
            let mut record = CellRecord::of(cell);
            if record.index == BAD {
                record.repetition = BAD + 1;
            }
            record.to_json()
        })
        .collect();
    let data_dir = temp_data_dir("bad-repetition");
    let store = FsStore::open(&data_dir).unwrap();
    store.put_spec(&fingerprint, &spec.to_json()).unwrap();
    store.set_state(&fingerprint, JobState::Running).unwrap();
    store.append_cells(&fingerprint, &lines).unwrap();
    let loaded = store.load_jobs().unwrap();
    assert_eq!(
        loaded[0].torn_lines, 1,
        "the line is refused at the decoder"
    );
    assert!(loaded[0].cells.iter().all(|c| c.index != BAD));
    drop(store);

    // Recovery re-executes exactly that cell and serves the true report.
    let (handle, client) = server_on(&data_dir, 1);
    let done = client.watch(&fingerprint, 25, |_| {}).unwrap();
    assert_eq!(done.state, JobState::Done);
    assert_eq!(handle.executed(), 1, "only the refused cell re-runs");
    assert_eq!(done.report_fingerprint, Some(expected.report_fingerprint));
    assert_eq!(client.summary(&fingerprint).unwrap(), expected.summary);

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn a_log_record_off_its_grid_position_is_rerun_not_served() {
    let text = spec_text();
    let spec = CampaignSpec::from_json(&text).unwrap();
    let fingerprint = spec.fingerprint();
    let expected = one_shot(&spec);
    let total = spec.cell_count();

    // Every cell is on disk, but cell 3 claims repetition 3 of a
    // 2-repetition spec — it decodes (repetition ≤ index), yet would group
    // with cells 0 and 1 — and one more record sits past the grid.  Neither
    // is a cell of this job: both count as torn, and cell 3 re-runs.
    const WRONG: usize = 3;
    assert_eq!(spec.repetitions, 2);
    let mut records: Vec<CellRecord> = expected.report.cells.iter().map(CellRecord::of).collect();
    records[WRONG].repetition = WRONG;
    let mut past = records[0].clone();
    past.index = total;
    records.push(past);
    let lines: Vec<String> = records.iter().map(CellRecord::to_json).collect();
    let data_dir = temp_data_dir("off-grid");
    let store = FsStore::open(&data_dir).unwrap();
    store.put_spec(&fingerprint, &spec.to_json()).unwrap();
    store.set_state(&fingerprint, JobState::Running).unwrap();
    store.append_cells(&fingerprint, &lines).unwrap();
    let loaded = store.load_jobs().unwrap();
    assert_eq!(loaded[0].torn_lines, 0, "both lines decode");
    assert_eq!(loaded[0].cells.len(), total + 1);
    drop(store);

    let (handle, client) = server_on(&data_dir, 1);
    let done = client.watch(&fingerprint, 25, |_| {}).unwrap();
    assert_eq!(done.state, JobState::Done);
    assert_eq!(done.cells_done, total);
    assert_eq!(handle.executed(), 1, "only the misplaced cell re-runs");
    assert_eq!(done.report_fingerprint, Some(expected.report_fingerprint));
    assert_eq!(client.summary(&fingerprint).unwrap(), expected.summary);
    assert_eq!(
        client.trajectory(&fingerprint).unwrap(),
        expected.trajectory
    );

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn cancel_parks_a_job_and_resubmitting_resumes_it() {
    let text = spec_text();
    // No workers: submissions queue durably but nothing executes, so the
    // cancel/resubmit transitions are fully deterministic.
    let data_dir = temp_data_dir("cancel");
    let (handle, client) = server_on(&data_dir, 0);

    let submitted = client.submit(&text).unwrap();
    assert_eq!(submitted.state, JobState::Queued);
    assert_eq!(submitted.cells_done, 0);

    let cancelled = client.cancel(&submitted.fingerprint).unwrap();
    assert_eq!(cancelled.state, JobState::Cancelled);
    // Cancel is idempotent and the job stays listed.
    assert_eq!(
        client.cancel(&submitted.fingerprint).unwrap().state,
        JobState::Cancelled
    );
    let list = client.jobs().unwrap();
    assert_eq!(list.jobs.len(), 1);
    assert_eq!(list.jobs[0].state, JobState::Cancelled);

    // Resubmitting the same spec resumes the cancelled job in place.
    let resumed = client.submit(&text).unwrap();
    assert_eq!(resumed.fingerprint, submitted.fingerprint);
    assert_eq!(resumed.state, JobState::Queued);
    assert_eq!(handle.executed(), 0, "no workers were started");

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn api_errors_are_typed_and_named() {
    let data_dir = temp_data_dir("errors");
    let (_handle, client) = server_on(&data_dir, 0);

    // Unknown job: a 404 whose message names the fingerprint.
    let err = client.status("deadbeefdeadbeef").unwrap_err();
    assert!(err.contains("404"), "got: {err}");
    assert!(err.contains("deadbeefdeadbeef"), "got: {err}");

    // A malformed spec is refused with a 400 before anything is stored.
    let (status, body) = client.request("POST", "/jobs", Some("{not json")).unwrap();
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("invalid spec"), "body: {body}");
    assert!(client.jobs().unwrap().jobs.is_empty());

    // So is a float past the `f64` range, naming its field: stored, its
    // canonical text would hold `inf` and the job could never load again.
    let overflowing = spec_text().replacen(
        r#"{"family":"complete","n":8}"#,
        r#"{"family":"watts-strogatz","n":12,"k":2,"beta":1e999}"#,
        1,
    );
    assert!(overflowing.contains("1e999"));
    let (status, body) = client.request("POST", "/jobs", Some(&overflowing)).unwrap();
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("beta"), "body: {body}");
    assert!(client.jobs().unwrap().jobs.is_empty());

    // Unknown routes and wrong methods both land on the typed 404.
    let (status, _) = client.request("GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, body) = client.request("PUT", "/jobs", None).unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("no route"), "body: {body}");

    // Health check works without any jobs.
    let (status, body) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"));

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn server_batches_are_exactly_the_cli_shard_partition() {
    let spec = CampaignSpec::from_json(&spec_text()).unwrap();
    let pending = Campaign::from_spec(&spec).unwrap().cell_indices();
    for of in [1usize, 3, 7] {
        let batches = shard_batches(&pending, of);
        let expected: Vec<Vec<usize>> = (0..of)
            .map(|i| {
                Campaign::from_spec(&spec)
                    .unwrap()
                    .shard(i, of)
                    .cell_indices()
            })
            .filter(|s| !s.is_empty())
            .collect();
        assert_eq!(batches, expected, "of={of}");
    }
}
