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
use mobile_congest::campaignd::server::{start, Config, Handle};
use mobile_congest::campaignd::store::{FsStore, Store};
use mobile_congest::campaignd::JobState;
use mobile_congest::harness::campaign::{cell_json, summary_json};
use mobile_congest::harness::json::fnv1a_hex;
use mobile_congest::harness::report::{trajectory_header, CellRecord};
use mobile_congest::harness::{Campaign, CampaignReport, CampaignSpec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

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

/// Start a server with `workers` engine threads (`0`: no runner) on an
/// ephemeral port and hand back its handle plus a client bound to it.
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
    let expected = one_shot(&spec);
    let total = spec.cell_count();
    let line_of = |index: usize| CellRecord::of(&expected.report.cells[index]).to_json();

    // Every on-disk shape a job can be left in, each in its own store:
    // (a) `spec.json` alone — submitted, never run: how a queued job sits
    //     on disk;
    // (b) what older servers left: `state.json` = `running`, the first half
    //     of the cells, and a stale, wrong `summary.jsonl` that must not be
    //     served;
    // (c) a crash mid-append: a `running` state, the even cells fully
    //     persisted, and a torn trailing line (a partial write of cell 1).
    let evens: Vec<usize> = (0..total).step_by(2).collect();
    let shapes: [(&str, Vec<usize>); 3] = [
        ("spec-only", Vec::new()),
        ("older-server", (0..total / 2).collect()),
        ("torn-tail", evens),
    ];
    for (tag, stored) in shapes {
        let data_dir = temp_data_dir(&format!("recovery-{tag}"));
        let store = FsStore::open(&data_dir).unwrap();
        store.put_spec(&fingerprint, &spec.to_json()).unwrap();
        let lines: Vec<String> = stored.iter().map(|&i| line_of(i)).collect();
        store.append_cells(&fingerprint, &lines).unwrap();
        let job_dir = data_dir.join("jobs").join(&fingerprint);
        match tag {
            "spec-only" => {
                let files: Vec<_> = std::fs::read_dir(&job_dir)
                    .unwrap()
                    .map(|e| e.unwrap().file_name())
                    .collect();
                assert_eq!(files, ["spec.json"], "an empty append creates no log");
            }
            "older-server" => {
                store.set_state(&fingerprint, JobState::Running).unwrap();
                std::fs::write(
                    job_dir.join("summary.jsonl"),
                    "{\"kind\":\"summary\",\"graph\":\"stale\"}\n",
                )
                .unwrap();
            }
            _ => {
                store.set_state(&fingerprint, JobState::Running).unwrap();
                let mut log = std::fs::OpenOptions::new()
                    .append(true)
                    .open(job_dir.join("cells.log"))
                    .unwrap();
                write!(log, "{{\"kind\":\"cell-record\",\"index\":1,\"gra").unwrap();
            }
        }
        drop(store);

        // Restart: recovery must requeue exactly the missing cells (a torn
        // cell never persisted, so it re-runs) and never touch stored ones.
        let (handle, client) = server_on(&data_dir, 1);
        let done = client.watch(&fingerprint, 25, |_| {}).unwrap();
        assert_eq!(done.state, JobState::Done, "{tag}");
        assert_eq!(done.cells_done, total, "{tag}");
        assert_eq!(
            handle.executed(),
            total - stored.len(),
            "{tag}: a recovered server must execute exactly the missing cells"
        );

        // And the resumed result is still byte-identical to the one-shot run.
        assert_eq!(
            done.report_fingerprint.as_ref(),
            Some(&expected.report_fingerprint),
            "{tag}"
        );
        assert_eq!(
            client.summary(&fingerprint).unwrap(),
            expected.summary,
            "{tag}"
        );

        // A second restart serves the same finished job from disk alone:
        // the requeued cells' first append must not have been glued onto a
        // torn fragment, or that record would be lost to a job that never
        // re-runs.
        let (again, client) = server_on(&data_dir, 1);
        let served = client.status(&fingerprint).unwrap();
        assert_eq!(served.state, JobState::Done, "{tag}");
        assert_eq!(served.cells_done, total, "{tag}");
        assert_eq!(again.executed(), 0, "{tag}: a finished job never re-runs");
        assert_eq!(
            served.report_fingerprint.as_ref(),
            Some(&expected.report_fingerprint),
            "{tag}"
        );
        assert_eq!(
            client.summary(&fingerprint).unwrap(),
            expected.summary,
            "{tag}"
        );
        assert_eq!(
            client.trajectory(&fingerprint).unwrap(),
            expected.trajectory,
            "{tag}"
        );

        let _ = std::fs::remove_dir_all(&data_dir);
    }
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
    // No engine threads, so no runner: submissions queue durably but
    // nothing executes, and the cancel/resubmit transitions are fully
    // deterministic.
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

/// A client that connects and sends nothing holds an HTTP thread only until
/// the server's read timeout: with every HTTP thread so held, `/healthz`
/// still answers.
#[test]
fn idle_connections_on_every_http_thread_do_not_stall_the_api() {
    let data_dir = temp_data_dir("idle");
    let mut config = Config::new(&data_dir);
    config.workers = 0;
    config.quiet = true;
    let threads = config.http_threads;
    let handle = start(config).expect("server starts");
    let idle: Vec<TcpStream> = (0..threads)
        .map(|_| TcpStream::connect(handle.addr()).expect("idle connection"))
        .collect();

    let mut probe = TcpStream::connect(handle.addr()).expect("probe connection");
    // Bounded, so a server that never answers fails the test, not hangs it.
    probe
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    let read = probe.read_to_string(&mut reply);
    assert!(
        read.is_ok(),
        "no /healthz answer behind {threads} idle connections: {read:?}"
    );
    assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");
    drop(idle);

    let _ = std::fs::remove_dir_all(&data_dir);
}
