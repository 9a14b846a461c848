//! The typed HTTP API surface: request/response structs with JSON codecs.
//!
//! Every wire document goes through the workspace codec, [`harness::json`]
//! (`mobile_congest_harness::json`) — no serde.  Each struct encodes to one
//! compact `kind:"..."`-tagged JSON object and parses back exactly, so the
//! [`crate::client::Client`] and the server can never drift: both sides use
//! these codecs.

use harness::json::{self, JsonValue, ObjectWriter, Reader};
use harness::SpecError;

use mobile_congest_harness as harness;

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted and durable; the runner has not started its cells yet.
    Queued,
    /// The runner is executing the job's cells; more remain to commit.
    Running,
    /// Every cell is stored and the report is finalized.
    Done,
    /// Cancelled via `DELETE /jobs/{fp}`; completed cells remain stored and
    /// a resubmission resumes from them.
    Cancelled,
    /// The server could not persist the job (the status carries the error).
    Failed,
}

impl JobState {
    /// The stable lowercase wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Parse a wire label.
    pub fn from_label(label: &str) -> Option<JobState> {
        Some(match label {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "cancelled" => JobState::Cancelled,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }

    /// Whether the state is final (the runner will not touch the job again
    /// without a new submission).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

impl core::fmt::Display for JobState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The status document of one job (`POST /jobs`, `GET /jobs/{fp}`,
/// `DELETE /jobs/{fp}` all return it).
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The spec fingerprint — the job's identity.
    pub fingerprint: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Cells in the full grid.
    pub cells_total: usize,
    /// Cells durably stored (any outcome).
    pub cells_done: usize,
    /// Stored cells that executed to a report.
    pub executed: usize,
    /// Stored cells skipped by validation.
    pub skipped: usize,
    /// Stored cells that failed at runtime.
    pub failed: usize,
    /// Executed cells disagreeing with the fault-free reference.
    pub disagreements: usize,
    /// The report fingerprint — FNV-1a over the job's
    /// [`CellRecord::to_json`](harness::CellRecord::to_json) lines in index
    /// order, each followed by a newline; present once the job is done, and
    /// equal to the same hash over the cells of the one-shot CLI run of the
    /// same spec.
    pub report_fingerprint: Option<String>,
    /// Why the job failed (only on [`JobState::Failed`]).
    pub error: Option<String>,
}

impl JobStatus {
    fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        w.str("kind", "job-status")
            .str("fingerprint", &self.fingerprint)
            .str("state", self.state.label())
            .u64("cells_total", self.cells_total as u64)
            .u64("cells_done", self.cells_done as u64)
            .u64("executed", self.executed as u64)
            .u64("skipped", self.skipped as u64)
            .u64("failed", self.failed as u64)
            .u64("disagreements", self.disagreements as u64);
        if let Some(fp) = &self.report_fingerprint {
            w.str("report_fingerprint", fp);
        }
        if let Some(error) = &self.error {
            w.str("error", error);
        }
    }

    /// Encode as one compact JSON object.
    pub fn to_json(&self) -> String {
        json::object(|w| self.write_fields(w))
    }

    /// Parse from the [`JobStatus::to_json`] form.
    pub fn from_json(text: &str) -> Result<JobStatus, SpecError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parse from an already-parsed JSON value.
    pub fn from_value(v: &JsonValue) -> Result<JobStatus, SpecError> {
        let r = Reader::new(v, "");
        r.kind("job-status", "job-status document")?;
        let state_label = r.str("state")?;
        Ok(JobStatus {
            fingerprint: r.str("fingerprint")?.to_string(),
            state: JobState::from_label(state_label).ok_or_else(|| SpecError::Invalid {
                reason: format!("unknown job state `{state_label}`"),
            })?,
            cells_total: r.usize("cells_total")?,
            cells_done: r.usize("cells_done")?,
            executed: r.usize("executed")?,
            skipped: r.usize("skipped")?,
            failed: r.usize("failed")?,
            disagreements: r.usize("disagreements")?,
            report_fingerprint: r.opt_str("report_fingerprint").map(str::to_string),
            error: r.opt_str("error").map(str::to_string),
        })
    }
}

/// The job listing (`GET /jobs`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobList {
    /// One status per known job, ordered by fingerprint.
    pub jobs: Vec<JobStatus>,
}

impl JobList {
    /// Encode as one compact JSON object.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.str("kind", "job-list").arr("jobs", |jobs| {
                for job in &self.jobs {
                    jobs.obj(|w| job.write_fields(w));
                }
            });
        })
    }

    /// Parse from the [`JobList::to_json`] form.
    pub fn from_json(text: &str) -> Result<JobList, SpecError> {
        let v = json::parse(text)?;
        let r = Reader::new(&v, "");
        r.kind("job-list", "job-list document")?;
        Ok(JobList {
            jobs: r
                .array("jobs")?
                .iter()
                .map(JobStatus::from_value)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// Parameters of the cross-job facet query (`GET /query`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryParams {
    /// Facet name (`overhead`, `network_rounds`, a notes metric, …).
    pub facet: String,
    /// Which statistic of the facet to report
    /// (`count`/`mean`/`stddev`/`min`/`max`/`p10`/`p50`/`p90`/`p99`).
    pub stat: String,
    /// Keep only groups with this graph display name.
    pub graph: Option<String>,
    /// Keep only groups with this adversary display name.
    pub adversary: Option<String>,
    /// Keep only groups with this compiler display name.
    pub compiler: Option<String>,
    /// Restrict to these job fingerprints (empty = every job).
    pub jobs: Vec<String>,
}

impl QueryParams {
    /// A query over every job for `facet`'s `stat`.
    pub fn new(facet: &str, stat: &str) -> QueryParams {
        QueryParams {
            facet: facet.to_string(),
            stat: stat.to_string(),
            graph: None,
            adversary: None,
            compiler: None,
            jobs: Vec::new(),
        }
    }

    /// Render as an URL query string (percent-encoding the values).
    pub fn to_query_string(&self) -> String {
        let mut parts = vec![
            format!("facet={}", crate::http::percent_encode(&self.facet)),
            format!("stat={}", crate::http::percent_encode(&self.stat)),
        ];
        for (key, value) in [
            ("graph", &self.graph),
            ("adversary", &self.adversary),
            ("compiler", &self.compiler),
        ] {
            if let Some(value) = value {
                parts.push(format!("{key}={}", crate::http::percent_encode(value)));
            }
        }
        if !self.jobs.is_empty() {
            parts.push(format!(
                "jobs={}",
                crate::http::percent_encode(&self.jobs.join(","))
            ));
        }
        parts.join("&")
    }
}

/// One row of a query result: one grid cell of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// The owning job's fingerprint.
    pub job: String,
    /// Graph display name.
    pub graph: String,
    /// Adversary display name.
    pub adversary: String,
    /// Compiler display name.
    pub compiler: String,
    /// The requested statistic of the requested facet.
    pub value: f64,
}

/// The query result (`GET /query`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The facet that was queried.
    pub facet: String,
    /// The statistic that was reported.
    pub stat: String,
    /// One row per matching grid cell, jobs in fingerprint order.
    pub rows: Vec<QueryRow>,
}

impl QueryResponse {
    /// Encode as one compact JSON object.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.str("kind", "query")
                .str("facet", &self.facet)
                .str("stat", &self.stat)
                .arr("rows", |rows| {
                    for r in &self.rows {
                        rows.obj(|w| {
                            w.str("job", &r.job)
                                .str("graph", &r.graph)
                                .str("adversary", &r.adversary)
                                .str("compiler", &r.compiler)
                                .f64("value", r.value);
                        });
                    }
                });
        })
    }

    /// Parse from the [`QueryResponse::to_json`] form.
    pub fn from_json(text: &str) -> Result<QueryResponse, SpecError> {
        let v = json::parse(text)?;
        let r = Reader::new(&v, "");
        r.kind("query", "query document")?;
        Ok(QueryResponse {
            facet: r.str("facet")?.to_string(),
            stat: r.str("stat")?.to_string(),
            rows: r
                .array("rows")?
                .iter()
                .map(|row| {
                    let row = Reader::new(row, "");
                    Ok(QueryRow {
                        job: row.str("job")?.to_string(),
                        graph: row.str("graph")?.to_string(),
                        adversary: row.str("adversary")?.to_string(),
                        compiler: row.str("compiler")?.to_string(),
                        value: row.f64("value")?,
                    })
                })
                .collect::<Result<Vec<_>, SpecError>>()?,
        })
    }
}

/// The error document every non-2xx response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Human-readable explanation.
    pub error: String,
}

impl ApiError {
    /// Encode as one compact JSON object.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.str("kind", "error").str("error", &self.error);
        })
    }

    /// Parse from the [`ApiError::to_json`] form.
    pub fn from_json(text: &str) -> Result<ApiError, SpecError> {
        let v = json::parse(text)?;
        Ok(ApiError {
            error: Reader::new(&v, "").str("error")?.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_status() -> JobStatus {
        JobStatus {
            fingerprint: "00112233deadbeef".into(),
            state: JobState::Running,
            cells_total: 54,
            cells_done: 20,
            executed: 18,
            skipped: 2,
            failed: 0,
            disagreements: 1,
            report_fingerprint: None,
            error: None,
        }
    }

    #[test]
    fn job_status_round_trips_with_and_without_optionals() {
        let mut status = sample_status();
        assert_eq!(JobStatus::from_json(&status.to_json()).unwrap(), status);
        status.state = JobState::Done;
        status.report_fingerprint = Some("ffee00112233".into());
        status.error = Some("boom".into());
        assert_eq!(JobStatus::from_json(&status.to_json()).unwrap(), status);
    }

    #[test]
    fn job_list_round_trips() {
        let list = JobList {
            jobs: vec![sample_status(), sample_status()],
        };
        assert_eq!(JobList::from_json(&list.to_json()).unwrap(), list);
        assert_eq!(
            JobList::from_json(&JobList::default().to_json()).unwrap(),
            JobList::default()
        );
    }

    #[test]
    fn query_response_round_trips() {
        let response = QueryResponse {
            facet: "overhead".into(),
            stat: "mean".into(),
            rows: vec![QueryRow {
                job: "abc".into(),
                graph: "K8".into(),
                adversary: "random-mobile".into(),
                compiler: "clique(f=1)".into(),
                value: 12.25,
            }],
        };
        assert_eq!(
            QueryResponse::from_json(&response.to_json()).unwrap(),
            response
        );
    }

    #[test]
    fn all_states_round_trip_their_labels() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Cancelled,
            JobState::Failed,
        ] {
            assert_eq!(JobState::from_label(state.label()), Some(state));
        }
        assert_eq!(JobState::from_label("paused"), None);
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn api_errors_round_trip() {
        let e = ApiError {
            error: "no job with fingerprint `xyz`".into(),
        };
        assert_eq!(ApiError::from_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn query_params_render_stable_query_strings() {
        let mut params = QueryParams::new("overhead", "p99");
        params.graph = Some("K8".into());
        params.jobs = vec!["a".into(), "b".into()];
        assert_eq!(
            params.to_query_string(),
            "facet=overhead&stat=p99&graph=K8&jobs=a%2Cb"
        );
    }
}
