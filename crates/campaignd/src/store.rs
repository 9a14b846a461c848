//! The durable job store: append-only, fsync'd, atomic-rename segments
//! under a data directory.
//!
//! Layout (everything keyed by the job's spec fingerprint):
//!
//! ```text
//! <data_dir>/jobs/<fingerprint>/
//!     spec.json       canonical CampaignSpec::to_json   (atomic rename)
//!     state.json      {"kind":"job-state","state":...}  (atomic rename)
//!     cells.log       one CellRecord JSON line per cell (append + fsync)
//! ```
//!
//! What is durable, and when: `spec.json` at submission, and each executed
//! batch's records in `cells.log` once its append returns.  `spec.json`
//! alone is a queued job: a missing `state.json` reads as `queued`.  The
//! server writes `state.json` only to park a job (`cancelled`, `failed`)
//! and to unpark one on resubmission (`queued`).  It never writes `running`
//! or `done`; older stores hold both, and the server reads them, like
//! `queued`, as "not parked".  Whether such a job is done is read off its
//! log: done when every grid cell has a record.  So a job never parked is
//! done with just `cells.log` and `spec.json`.  A `summary.jsonl` that
//! older stores hold beside these files is never read: summaries are
//! computed from the cell records.
//!
//! Recovery protocol ([`Store::load_jobs`]): enumerate the job directories,
//! re-parse `spec.json` and `state.json`, replay `cells.log` line by line.
//! A line is persisted only once its `\n` is: a crash mid-append leaves a
//! trailing fragment without one, and recovery truncates `cells.log` back
//! to its last `\n` and fsyncs before anything appends again, so the next
//! append starts on a line of its own.  Only lines that parse as full
//! [`CellRecord`]s count as done — the cut fragment and any unparseable
//! line are counted in [`StoredJob::torn_lines`] and their cells simply
//! re-run (the cell's seed depends only on its global index, so the re-run
//! is byte-identical).  `cells.log` is append-only and fsync'd per append;
//! the other two files are written whole to a temp file, fsync'd and
//! renamed into place, so a crash at any instant leaves either the old
//! version or the new one.

use harness::json::{self, Reader};
use harness::report::{write_atomic, CellRecord};
use harness::CampaignSpec;
use mobile_congest_harness as harness;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::api_types::JobState;

/// A store failure: which path, what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The path the operation touched.
    pub path: PathBuf,
    /// What went wrong.
    pub reason: String,
}

impl StoreError {
    fn new(path: impl Into<PathBuf>, reason: impl core::fmt::Display) -> StoreError {
        StoreError {
            path: path.into(),
            reason: reason.to_string(),
        }
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "store error at {}: {}", self.path.display(), self.reason)
    }
}

impl std::error::Error for StoreError {}

/// One job as recovered from disk.
#[derive(Debug, Clone)]
pub struct StoredJob {
    /// The spec fingerprint (directory name, re-verified against the spec).
    pub fingerprint: String,
    /// The parsed spec.
    pub spec: CampaignSpec,
    /// Last durably recorded state.
    pub state: JobState,
    /// Every fully persisted cell record, in log order.
    pub cells: Vec<CellRecord>,
    /// Unparseable `cells.log` lines that were skipped, a torn tail cut off
    /// by this replay included.
    pub torn_lines: usize,
}

/// The persistence contract of the campaign server.  One method per
/// durability point; [`Store::load_jobs`] is the crash-recovery replay.
/// The server persists only what recovery reads: the spec, the cells, and
/// a state wherever the default `queued` would be wrong (a parked job, or
/// `queued` again over one).
pub trait Store: Send + Sync {
    /// Persist a job's canonical spec JSON (atomic; creates the job, which
    /// loads as `queued` until a state is set).
    fn put_spec(&self, fingerprint: &str, spec_json: &str) -> Result<(), StoreError>;
    /// Persist a job's lifecycle state (atomic).
    fn set_state(&self, fingerprint: &str, state: JobState) -> Result<(), StoreError>;
    /// Append finished cells to the job's log, one pre-encoded
    /// [`CellRecord::to_json`] line per cell (fsync'd before returning —
    /// once this returns, the cells survive any crash).  Callers encode
    /// once and keep the lines; the server reuses them to fingerprint the
    /// finished report without re-serializing every record.
    fn append_cells(&self, fingerprint: &str, lines: &[String]) -> Result<(), StoreError>;
    /// Replay the whole store (see the module docs for the protocol).
    fn load_jobs(&self) -> Result<Vec<StoredJob>, StoreError>;
}

/// The filesystem store (see the module docs for layout and protocol).
pub struct FsStore {
    root: PathBuf,
}

impl FsStore {
    /// Open (creating if needed) a store under `data_dir`.
    pub fn open(data_dir: &Path) -> Result<FsStore, StoreError> {
        let root = data_dir.join("jobs");
        fs::create_dir_all(&root).map_err(|e| StoreError::new(&root, e))?;
        Ok(FsStore { root })
    }

    fn job_dir(&self, fingerprint: &str) -> PathBuf {
        self.root.join(fingerprint)
    }

    /// Write `text` to `path` crash-safely (temp file, fsync, rename).
    fn write_atomic(path: &Path, text: &str) -> Result<(), StoreError> {
        write_atomic(path, text).map_err(|e| StoreError::new(path, e))
    }
}

impl Store for FsStore {
    fn put_spec(&self, fingerprint: &str, spec_json: &str) -> Result<(), StoreError> {
        let dir = self.job_dir(fingerprint);
        fs::create_dir_all(&dir).map_err(|e| StoreError::new(&dir, e))?;
        Self::write_atomic(&dir.join("spec.json"), spec_json)
    }

    fn set_state(&self, fingerprint: &str, state: JobState) -> Result<(), StoreError> {
        let path = self.job_dir(fingerprint).join("state.json");
        let mut text = json::object(|w| {
            w.str("kind", "job-state").str("state", state.label());
        });
        text.push('\n');
        Self::write_atomic(&path, &text)
    }

    fn append_cells(&self, fingerprint: &str, lines: &[String]) -> Result<(), StoreError> {
        if lines.is_empty() {
            return Ok(());
        }
        let path = self.job_dir(fingerprint).join("cells.log");
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::new(&path, e))?;
        let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        file.write_all(text.as_bytes())
            .map_err(|e| StoreError::new(&path, e))?;
        // The durability point: the batch is either fully on disk after this
        // returns, or (on a crash before it) at worst a torn trailing line,
        // which recovery cuts off and re-runs.
        file.sync_data().map_err(|e| StoreError::new(&path, e))
    }

    fn load_jobs(&self) -> Result<Vec<StoredJob>, StoreError> {
        let mut jobs = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| StoreError::new(&self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::new(&self.root, e))?;
            let dir = entry.path();
            if !dir.is_dir() {
                continue;
            }
            let fingerprint = entry.file_name().to_string_lossy().into_owned();
            let spec_path = dir.join("spec.json");
            let spec_text = match fs::read_to_string(&spec_path) {
                Ok(text) => text,
                // A crash between create_dir_all and the spec rename leaves
                // an empty job directory: nothing durable was promised yet,
                // so skip it.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(StoreError::new(&spec_path, e)),
            };
            let spec =
                CampaignSpec::from_json(&spec_text).map_err(|e| StoreError::new(&spec_path, e))?;
            if spec.fingerprint() != fingerprint {
                return Err(StoreError::new(
                    &spec_path,
                    format!(
                        "spec fingerprint {} does not match its directory",
                        spec.fingerprint()
                    ),
                ));
            }
            let state_path = dir.join("state.json");
            let state = match fs::read_to_string(&state_path) {
                Ok(text) => parse_state(&text)
                    .ok_or_else(|| StoreError::new(&state_path, "malformed job-state document"))?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => JobState::Queued,
                Err(e) => return Err(StoreError::new(&state_path, e)),
            };
            let log_path = dir.join("cells.log");
            let (cells, torn_lines) = match fs::read(&log_path) {
                Ok(bytes) => {
                    // Appending behind a torn tail would glue the fragment
                    // and the next record into one line that never parses.
                    let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    let mut torn = usize::from(whole < bytes.len());
                    if torn > 0 {
                        truncate_durably(&log_path, whole as u64)?;
                    }
                    let mut cells = Vec::new();
                    for line in String::from_utf8_lossy(&bytes[..whole]).lines() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        match CellRecord::from_json(line) {
                            Ok(record) => cells.push(record),
                            Err(_) => torn += 1,
                        }
                    }
                    (cells, torn)
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), 0),
                Err(e) => return Err(StoreError::new(&log_path, e)),
            };
            jobs.push(StoredJob {
                fingerprint,
                spec,
                state,
                cells,
                torn_lines,
            });
        }
        jobs.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        Ok(jobs)
    }
}

/// Cut the file at `path` to its first `len` bytes and fsync the new size.
fn truncate_durably(path: &Path, len: u64) -> Result<(), StoreError> {
    let file = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::new(path, e))?;
    file.set_len(len).map_err(|e| StoreError::new(path, e))?;
    file.sync_all().map_err(|e| StoreError::new(path, e))
}

/// Parse the `state.json` document.
fn parse_state(text: &str) -> Option<JobState> {
    let v = json::parse(text.trim()).ok()?;
    let r = Reader::new(&v, "");
    r.kind("job-state", "job-state document").ok()?;
    JobState::from_label(r.str("state").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::report::RecordOutcome;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("campaignd-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_spec() -> CampaignSpec {
        CampaignSpec::from_json(
            r#"{"kind":"campaign-spec","seed":7,"repetitions":2,"grid":{
                "graphs":[{"family":"complete","n":6}],
                "adversaries":[{"kind":"random-mobile","f":1}],
                "compilers":[{"id":"uncompiled"}],
                "payload":{"kind":"exchange-ids"}}}"#,
        )
        .unwrap()
    }

    fn record(index: usize) -> CellRecord {
        CellRecord {
            index,
            graph: "K6".into(),
            adversary: "random-mobile".into(),
            compiler: "uncompiled".into(),
            repetition: index % 2,
            seed: 42,
            outcome: RecordOutcome::Ok {
                payload_rounds: 1,
                network_rounds: 1,
                corrupted_edge_rounds: 0,
                cong_p99: 1.0,
                cong_topk: 1.0,
                agrees: Some(true),
                notes_type: "uncompiled".into(),
                notes: vec![],
            },
        }
    }

    #[test]
    fn a_job_survives_the_full_persistence_cycle() {
        let dir = temp_dir("cycle");
        let store = FsStore::open(&dir).unwrap();
        let spec = sample_spec();
        let fp = spec.fingerprint();
        store.put_spec(&fp, &spec.to_json()).unwrap();
        store.set_state(&fp, JobState::Running).unwrap();
        store
            .append_cells(&fp, &[record(0).to_json(), record(1).to_json()])
            .unwrap();
        store.append_cells(&fp, &[record(2).to_json()]).unwrap();
        store.set_state(&fp, JobState::Done).unwrap();

        let jobs = FsStore::open(&dir).unwrap().load_jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        let job = &jobs[0];
        assert_eq!(job.fingerprint, fp);
        assert_eq!(job.spec, spec);
        assert_eq!(job.state, JobState::Done);
        assert_eq!(job.cells.len(), 3);
        assert_eq!(job.torn_lines, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_lines_are_skipped_and_counted() {
        let dir = temp_dir("torn");
        let store = FsStore::open(&dir).unwrap();
        let spec = sample_spec();
        let fp = spec.fingerprint();
        store.put_spec(&fp, &spec.to_json()).unwrap();
        store.append_cells(&fp, &[record(0).to_json()]).unwrap();
        // Simulate a crash mid-append: a truncated JSON line at the tail.
        let log = dir.join("jobs").join(&fp).join("cells.log");
        let mut file = fs::OpenOptions::new().append(true).open(&log).unwrap();
        file.write_all(b"{\"kind\":\"cell-record\",\"index\":1,\"gra")
            .unwrap();
        drop(file);

        let jobs = store.load_jobs().unwrap();
        assert_eq!(jobs[0].cells.len(), 1, "only the intact record counts");
        assert_eq!(jobs[0].torn_lines, 1);
        assert_eq!(jobs[0].state, JobState::Queued, "no state file yet");

        // Recovery cut the fragment, so the requeued cells' batch appends
        // whole lines and a second restart loads every record.
        store
            .append_cells(&fp, &[record(1).to_json(), record(2).to_json()])
            .unwrap();
        let jobs = store.load_jobs().unwrap();
        let indices: Vec<usize> = jobs[0].cells.iter().map(|c| c.index).collect();
        assert_eq!(indices, [0, 1, 2], "every appended record is loaded");
        assert_eq!(jobs[0].torn_lines, 0, "the fragment is gone from the log");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_with_a_non_finite_metric_is_torn_not_loaded() {
        let dir = temp_dir("nonfinite");
        let store = FsStore::open(&dir).unwrap();
        let spec = sample_spec();
        let fp = spec.fingerprint();
        store.put_spec(&fp, &spec.to_json()).unwrap();
        // `1e999` reads as `inf`, which re-encodes as the non-JSON `inf`.
        let line = record(0)
            .to_json()
            .replace("\"cong_p99\":1", "\"cong_p99\":1e999");
        assert!(line.contains("1e999"), "{line}");
        assert!(CellRecord::from_json(&line).is_err());
        store
            .append_cells(&fp, &[line, record(1).to_json()])
            .unwrap();
        let jobs = store.load_jobs().unwrap();
        assert_eq!(jobs[0].cells.len(), 1);
        assert_eq!(jobs[0].torn_lines, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_job_directories_are_skipped_and_mismatched_specs_refused() {
        let dir = temp_dir("mismatch");
        let store = FsStore::open(&dir).unwrap();
        // Crash between mkdir and the spec rename: an empty directory.
        fs::create_dir_all(dir.join("jobs").join("0000000000000000")).unwrap();
        assert!(store.load_jobs().unwrap().is_empty());
        // A spec filed under the wrong fingerprint is corruption, not data.
        let spec = sample_spec();
        store.put_spec("ffffffffffffffff", &spec.to_json()).unwrap();
        assert!(store.load_jobs().is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
