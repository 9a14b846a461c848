//! The campaign-report codec: flat, serializable per-cell records with a
//! lossless JSON round trip.
//!
//! A [`CellRecord`] is the plain-data form of one executed
//! [`CampaignCell`]: the cell's grid coordinates plus
//! exactly the facet values the summary aggregation consumes — no live
//! `RunReport`, no outputs, no traces.  A [`ReportRecord`] is a whole
//! campaign report in that form.  Three properties make it the storage format
//! of the campaign server (`crates/campaignd`):
//!
//! * **lossless round trip** — `from_jsonl(to_jsonl(r)) == r` for every
//!   record (property-tested in `tests/report_proptests.rs`; numbers ride the
//!   exact-token [`crate::json`] layer, so `u64` seeds and shortest-form
//!   `f64` facets survive byte-for-byte);
//! * **fingerprint-stable** — [`ReportRecord::fingerprint`] is FNV-1a over
//!   the canonical JSONL form, so two reports fingerprint equal iff they
//!   carry the same cells, no matter which process (CLI run, server worker,
//!   store replay) produced them;
//! * **summary-exact** — [`ReportRecord::summaries`] and
//!   [`CampaignReport::summaries`](crate::CampaignReport::summaries) share
//!   one implementation ([`summaries_of`]), so a summary recomputed from
//!   stored records is byte-identical to the one the live run printed.
//!
//! The per-cell trajectory line of the campaign CLI
//! ([`cell_json`](crate::campaign::cell_json)) is derivable from a record
//! ([`CellRecord::cell_line`]), which is what lets a server-side store answer
//! `GET /jobs/{fp}/trajectory` with the exact bytes a one-shot CLI run would
//! have written.
//!
//! The trajectory *file* lives here too, once: [`trajectory_header`] keys a
//! file to its spec, [`read_lines`] reads one back for `--resume` (foreign
//! fingerprints refused, torn lines skipped), [`assemble`] merges kept and
//! fresh lines in index order and [`write_atomic`] replaces the file
//! crash-safely.  The `campaign` and `redteam` CLIs and the server's store
//! all call these.

use crate::campaign::{
    encode_cell_line, summary_json, CampaignCell, CampaignReport, CellLine, CellLineRun,
    GroupSummary,
};
use crate::json::{self, fnv1a_hex, JsonValue, Reader};
use crate::spec::{CampaignSpec, SpecError};
use crate::stats::StatSummary;
use std::io::Write as _;
use std::path::Path;

/// How one recorded cell ended: the executed facets, or the typed reason it
/// did not run.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordOutcome {
    /// The cell executed to a report.
    Ok {
        /// Rounds of the uncompiled payload.
        payload_rounds: usize,
        /// Network rounds the compiled execution consumed.
        network_rounds: usize,
        /// Edge-rounds the adversary corrupted.
        corrupted_edge_rounds: usize,
        /// 99th-percentile per-arc congestion.
        cong_p99: f64,
        /// Mean of the top-3 per-arc congestion values.
        cong_topk: f64,
        /// Agreement with the fault-free reference (`None` when the
        /// reference run was disabled).
        agrees: Option<bool>,
        /// The [`CompilerNotes`](congest_sim::scenario::CompilerNotes) label.
        notes_type: String,
        /// The typed notes metrics, in their canonical emission order.
        notes: Vec<(String, f64)>,
    },
    /// The cell was skipped by validation (structurally incompatible
    /// configuration).
    Skipped {
        /// The typed error, rendered.
        error: String,
    },
    /// The cell failed at runtime.
    Failed {
        /// The typed error, rendered.
        error: String,
    },
}

/// The plain-data form of one campaign cell: grid coordinates plus the facet
/// values the summaries are computed from.  See the module docs for the
/// round-trip / fingerprint / summary contracts.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Position in the campaign's global enumeration order.
    pub index: usize,
    /// Graph display name.
    pub graph: String,
    /// Adversary display name.
    pub adversary: String,
    /// Compiler display name.
    pub compiler: String,
    /// Repetition number within the grid cell.
    pub repetition: usize,
    /// The derived per-cell seed.
    pub seed: u64,
    /// How the cell ended.
    pub outcome: RecordOutcome,
}

impl CellRecord {
    /// Flatten one executed campaign cell into its record form.
    pub fn of(cell: &CampaignCell) -> CellRecord {
        let outcome = match &cell.outcome {
            Ok(report) => {
                let cong = report.metrics.congestion_summary(3);
                RecordOutcome::Ok {
                    payload_rounds: report.payload_rounds,
                    network_rounds: report.network_rounds,
                    corrupted_edge_rounds: report.metrics.corrupted_edge_rounds,
                    cong_p99: cong.p99 as f64,
                    cong_topk: cong.topk_mean(),
                    agrees: report.agrees_with_fault_free(),
                    notes_type: report.notes.label().to_string(),
                    notes: report
                        .notes
                        .metrics()
                        .into_iter()
                        .map(|(name, value)| (name.to_string(), value))
                        .collect(),
                }
            }
            Err(e) if cell.skipped() => RecordOutcome::Skipped {
                error: e.to_string(),
            },
            Err(e) => RecordOutcome::Failed {
                error: e.to_string(),
            },
        };
        CellRecord {
            index: cell.index,
            graph: cell.graph.clone(),
            adversary: cell.adversary.clone(),
            compiler: cell.compiler.clone(),
            repetition: cell.repetition,
            seed: cell.seed,
            outcome,
        }
    }

    /// `ok` / `skipped` / `failed` (mirrors
    /// [`CampaignCell::status`](crate::CampaignCell::status)).
    pub fn status(&self) -> &'static str {
        match self.outcome {
            RecordOutcome::Ok { .. } => "ok",
            RecordOutcome::Skipped { .. } => "skipped",
            RecordOutcome::Failed { .. } => "failed",
        }
    }

    /// The facet samples this record contributes to its group summary
    /// (empty unless the cell executed) — the single extraction point the
    /// live path reuses through [`summaries_of`].
    pub fn facets(&self) -> Vec<(String, f64)> {
        let RecordOutcome::Ok {
            payload_rounds,
            network_rounds,
            corrupted_edge_rounds,
            cong_p99,
            cong_topk,
            ref notes,
            ..
        } = self.outcome
        else {
            return Vec::new();
        };
        let mut facets = vec![
            ("network_rounds".to_string(), network_rounds as f64),
            ("payload_rounds".to_string(), payload_rounds as f64),
            (
                "overhead".to_string(),
                network_rounds as f64 / payload_rounds.max(1) as f64,
            ),
            (
                "corrupted_edge_rounds".to_string(),
                corrupted_edge_rounds as f64,
            ),
            ("cong_p99".to_string(), cong_p99),
            ("cong_topk".to_string(), cong_topk),
        ];
        facets.extend(notes.iter().cloned());
        facets
    }

    /// Encode as one canonical `kind:"cell-record"` JSON line.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.str("kind", "cell-record")
                .u64("index", self.index as u64)
                .str("graph", &self.graph)
                .str("adversary", &self.adversary)
                .str("compiler", &self.compiler)
                .u64("repetition", self.repetition as u64)
                .u64("seed", self.seed)
                .str("status", self.status());
            match &self.outcome {
                RecordOutcome::Ok {
                    payload_rounds,
                    network_rounds,
                    corrupted_edge_rounds,
                    cong_p99,
                    cong_topk,
                    agrees,
                    notes_type,
                    notes,
                } => {
                    w.u64("payload_rounds", *payload_rounds as u64)
                        .u64("network_rounds", *network_rounds as u64)
                        .u64("corrupted_edge_rounds", *corrupted_edge_rounds as u64)
                        .f64("cong_p99", *cong_p99)
                        .f64("cong_topk", *cong_topk)
                        .opt_bool("agrees", *agrees)
                        .obj("notes", |w| {
                            w.str("type", notes_type).obj("metrics", |w| {
                                for (name, value) in notes {
                                    w.f64(name, *value);
                                }
                            });
                        });
                }
                RecordOutcome::Skipped { error } | RecordOutcome::Failed { error } => {
                    w.str("error", error);
                }
            }
        })
    }

    /// Parse one record from its [`CellRecord::to_json`] line.
    pub fn from_json(line: &str) -> Result<CellRecord, SpecError> {
        let v = json::parse(line)?;
        Self::from_value(&v)
    }

    /// Parse one record from an already-parsed JSON value.
    pub fn from_value(v: &JsonValue) -> Result<CellRecord, SpecError> {
        let r = Reader::new(v, "cell-record");
        r.kind("cell-record", "cell-record line")?;
        let outcome = match r.str("status")? {
            "ok" => {
                let notes = Reader::new(r.value("notes")?, "cell-record.notes");
                let metrics = notes
                    .object("metrics")?
                    .iter()
                    .map(|(name, value)| {
                        value
                            .as_f64()
                            .map(|f| (name.clone(), f))
                            .ok_or_else(|| notes.missing("metrics[]"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                RecordOutcome::Ok {
                    payload_rounds: r.usize("payload_rounds")?,
                    network_rounds: r.usize("network_rounds")?,
                    corrupted_edge_rounds: r.usize("corrupted_edge_rounds")?,
                    cong_p99: r.f64("cong_p99")?,
                    cong_topk: r.f64("cong_topk")?,
                    agrees: match r.value("agrees")? {
                        JsonValue::Null => None,
                        other => Some(other.as_bool().ok_or_else(|| r.missing("agrees"))?),
                    },
                    notes_type: notes.str("type")?.to_string(),
                    notes: metrics,
                }
            }
            "skipped" => RecordOutcome::Skipped {
                error: r.str("error")?.to_string(),
            },
            "failed" => RecordOutcome::Failed {
                error: r.str("error")?.to_string(),
            },
            other => {
                return Err(SpecError::Invalid {
                    reason: format!("unknown cell-record status `{other}`"),
                })
            }
        };
        let record = CellRecord {
            index: r.usize("index")?,
            graph: r.str("graph")?.to_string(),
            adversary: r.str("adversary")?.to_string(),
            compiler: r.str("compiler")?.to_string(),
            repetition: r.usize("repetition")?,
            seed: r.u64("seed")?,
            outcome,
        };
        // Repetitions are innermost in the enumeration order, so a cell's
        // repetition never exceeds its index; `grouped_indices` subtracts
        // the two, and a log line is outside input.
        if record.repetition > record.index {
            return Err(SpecError::Invalid {
                reason: format!(
                    "cell-record repetition {} exceeds its index {}",
                    record.repetition, record.index
                ),
            });
        }
        Ok(record)
    }

    /// The `kind:"cell"` trajectory line this record stands for —
    /// byte-identical to [`cell_json`](crate::campaign::cell_json) on the
    /// live cell it was flattened from (both are extractors over one
    /// encoder), so a store can serve the exact trajectory a CLI run writes.
    pub fn cell_line(&self) -> String {
        encode_cell_line(CellLine {
            index: self.index,
            graph: &self.graph,
            adversary: &self.adversary,
            compiler: &self.compiler,
            repetition: self.repetition,
            seed: self.seed,
            status: self.status(),
            outcome: match &self.outcome {
                RecordOutcome::Ok {
                    payload_rounds,
                    network_rounds,
                    corrupted_edge_rounds,
                    agrees,
                    notes_type,
                    notes,
                    ..
                } => Ok(CellLineRun {
                    payload_rounds: *payload_rounds,
                    network_rounds: *network_rounds,
                    corrupted_edge_rounds: *corrupted_edge_rounds,
                    agrees: *agrees,
                    notes_type,
                    notes: notes.iter().map(|(name, value)| (name.as_str(), *value)),
                }),
                RecordOutcome::Skipped { error } | RecordOutcome::Failed { error } => Err(error),
            },
        })
    }
}

/// A whole campaign report in record form: the serializable product of a run
/// (see the module docs for the codec contracts).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportRecord {
    /// The cell records, ordered by [`CellRecord::index`].
    pub cells: Vec<CellRecord>,
}

impl ReportRecord {
    /// Flatten a live campaign report.
    pub fn of(report: &CampaignReport) -> ReportRecord {
        ReportRecord {
            cells: report.cells.iter().map(CellRecord::of).collect(),
        }
    }

    /// Encode as canonical JSONL: one [`CellRecord::to_json`] line per cell,
    /// in index order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&cell.to_json());
            out.push('\n');
        }
        out
    }

    /// Parse a report from its [`ReportRecord::to_jsonl`] form (blank lines
    /// allowed; any other malformed line is a typed error).  Cells are
    /// re-sorted by index, with exact duplicates deduplicated — the same
    /// normalization [`ReportRecord::merged`] applies.
    pub fn from_jsonl(text: &str) -> Result<ReportRecord, SpecError> {
        let mut cells = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            cells.push(CellRecord::from_json(line)?);
        }
        Ok(ReportRecord::merged([ReportRecord { cells }]))
    }

    /// Merge shard / resume / store-segment reports into one, re-establishing
    /// the global enumeration order.  Cells sharing an index are deduplicated
    /// (first occurrence wins) — by the campaign determinism contract, two
    /// records of the same global index describe the same execution.
    pub fn merged(reports: impl IntoIterator<Item = ReportRecord>) -> ReportRecord {
        let mut cells: Vec<CellRecord> = reports.into_iter().flat_map(|r| r.cells).collect();
        cells.sort_by_key(|c| c.index);
        cells.dedup_by_key(|c| c.index);
        ReportRecord { cells }
    }

    /// Aggregate into per-grid-cell summaries — the same bytes
    /// [`CampaignReport::summaries`](crate::CampaignReport::summaries)
    /// produces for the live report these records were flattened from
    /// (untraced runs; the wall-clock profile is measurement, not data, and
    /// is never recorded).
    pub fn summaries(&self) -> Vec<GroupSummary> {
        summaries_of(&self.cells)
    }

    /// The `kind:"summary"` JSONL block (one line per grid cell) — the
    /// machine-parseable stdout of a CLI run, recomputed from records.
    pub fn summary_jsonl(&self) -> String {
        let mut out = String::new();
        for summary in self.summaries() {
            out.push_str(&summary_json(&summary));
            out.push('\n');
        }
        out
    }

    /// The trajectory body: one [`CellRecord::cell_line`] per cell.
    pub fn cell_lines(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&cell.cell_line());
            out.push('\n');
        }
        out
    }

    /// Stable 64-bit fingerprint (FNV-1a over the canonical
    /// [`ReportRecord::to_jsonl`] form), rendered as 16 hex digits.  Two
    /// reports fingerprint equal iff they carry the same cell records —
    /// the acceptance check "a server-run campaign is byte-identical to the
    /// one-shot CLI run" compares exactly this.
    pub fn fingerprint(&self) -> String {
        fnv1a_hex(self.to_jsonl().bytes())
    }

    /// Executed / skipped / failed / disagreeing cell counts, in that order.
    pub fn outcome_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for cell in &self.cells {
            match &cell.outcome {
                RecordOutcome::Ok { agrees, .. } => {
                    counts.0 += 1;
                    if *agrees == Some(false) {
                        counts.3 += 1;
                    }
                }
                RecordOutcome::Skipped { .. } => counts.1 += 1,
                RecordOutcome::Failed { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

/// The `kind:"campaign"` trajectory header keying a trajectory to its spec —
/// shared by the campaign CLI's `--out` files and the campaign server's
/// `GET /jobs/{fp}/trajectory`, so the two artifacts are byte-comparable.
pub fn trajectory_header(spec: &CampaignSpec) -> String {
    json::object(|w| {
        w.str("kind", "campaign")
            .str("fingerprint", &spec.fingerprint())
            .u64("seed", spec.seed)
            .u64("repetitions", spec.repetitions as u64)
            .u64("cells", spec.cell_count() as u64);
    })
}

/// Read a trajectory file back for `--resume`: check that its first line is
/// a `header_kind` header written for `fingerprint`, then return the
/// `(index, line)` pairs of the well-formed `line_kind` lines, verbatim and
/// in file order.  A foreign fingerprint is an error — resuming must never
/// mix campaigns; anything after the header that does not parse (a torn
/// trailing line from an interrupted write, a blank line) is skipped, and
/// its cell simply runs again.
pub fn read_lines(
    text: &str,
    header_kind: &str,
    line_kind: &str,
    fingerprint: &str,
) -> Result<Vec<(usize, String)>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("trajectory file is empty")?;
    let header = json::parse(header).map_err(|e| format!("trajectory header: {e}"))?;
    let header = Reader::new(&header, "");
    if header.opt_str("kind") != Some(header_kind) {
        return Err(format!("trajectory header is not kind:\"{header_kind}\""));
    }
    match header.opt_str("fingerprint") {
        Some(found) if found == fingerprint => {}
        Some(found) => {
            return Err(format!(
                "trajectory was written for spec {found}, this spec is {fingerprint}"
            ))
        }
        None => return Err("trajectory header has no fingerprint".into()),
    }
    let mut kept = Vec::new();
    for line in lines {
        let Ok(doc) = json::parse(line) else {
            continue;
        };
        let doc = Reader::new(&doc, "");
        if doc.opt_str("kind") != Some(line_kind) {
            continue;
        }
        if let Ok(index) = doc.usize("index") {
            kept.push((index, line.to_string()));
        }
    }
    Ok(kept)
}

/// Assemble a trajectory file: `header`, then `lines` in index order.  Of
/// several lines sharing an index the last one wins, so freshly run lines
/// appended after kept ones supersede them.
pub fn assemble(header: &str, lines: &[(usize, String)]) -> String {
    let mut order: Vec<&(usize, String)> = lines.iter().collect();
    order.sort_by_key(|(index, _)| *index); // stable: ties stay in input order
    let mut out = String::from(header);
    out.push('\n');
    for (at, (index, line)) in order.iter().enumerate() {
        if order.get(at + 1).is_some_and(|(next, _)| next == index) {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Replace `path` with `text` crash-safely: write a temp file in the same
/// directory, fsync it, rename it into place.  A crash at any instant
/// leaves either the old file or the new one, never a truncated mix.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let mut file = std::fs::File::create(tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)
}

/// Group member indices per grid cell, in enumeration order.  Records are
/// grouped on the key `index - repetition` (the global index of the grid
/// cell's repetition 0) over contiguous runs — the same rule the live
/// summaries use, so non-contiguous subsets (shards, resumed or partially
/// stored jobs) aggregate per grid cell and never glue repetitions onto a
/// neighbouring cell.
pub fn grouped_indices(records: &[CellRecord]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let key = record.index - record.repetition;
        match groups.last_mut() {
            Some((k, members)) if *k == key => members.push(i),
            _ => groups.push((key, vec![i])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Aggregate records into per-grid-cell [`GroupSummary`]s — the single
/// summary implementation behind both
/// [`CampaignReport::summaries`](crate::CampaignReport::summaries) (which
/// overlays wall-clock profiles on top) and [`ReportRecord::summaries`].
pub fn summaries_of(records: &[CellRecord]) -> Vec<GroupSummary> {
    grouped_indices(records)
        .into_iter()
        .map(|members| {
            let first = &records[members[0]];
            let mut stats: Vec<(String, Vec<f64>)> = Vec::new();
            let mut executed = 0usize;
            let mut skipped = 0usize;
            let mut failed = 0usize;
            let mut disagreements = 0usize;
            for &i in &members {
                let record = &records[i];
                match &record.outcome {
                    RecordOutcome::Ok { agrees, .. } => {
                        executed += 1;
                        if *agrees == Some(false) {
                            disagreements += 1;
                        }
                        for (name, value) in record.facets() {
                            match stats.iter_mut().find(|(n, _)| *n == name) {
                                Some((_, samples)) => samples.push(value),
                                None => stats.push((name, vec![value])),
                            }
                        }
                    }
                    RecordOutcome::Skipped { .. } => skipped += 1,
                    RecordOutcome::Failed { .. } => failed += 1,
                }
            }
            GroupSummary {
                graph: first.graph.clone(),
                adversary: first.adversary.clone(),
                compiler: first.compiler.clone(),
                executed,
                skipped,
                failed,
                disagreements,
                stats: stats
                    .into_iter()
                    .filter_map(|(name, samples)| StatSummary::of(&samples).map(|s| (name, s)))
                    .collect(),
                profile: Vec::new(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_record(index: usize, repetition: usize) -> CellRecord {
        CellRecord {
            index,
            graph: "K8".into(),
            adversary: "random-mobile".into(),
            compiler: "clique(f=1)".into(),
            repetition,
            seed: 0xDEAD_BEEF_u64,
            outcome: RecordOutcome::Ok {
                payload_rounds: 3,
                network_rounds: 10,
                corrupted_edge_rounds: 4,
                cong_p99: 7.0,
                cong_topk: 6.333333333333333,
                agrees: Some(true),
                notes_type: "resilient".into(),
                notes: vec![("fully_corrected".into(), 1.0), ("good_trees".into(), 9.0)],
            },
        }
    }

    #[test]
    fn record_json_round_trips() {
        for record in [
            ok_record(5, 1),
            CellRecord {
                outcome: RecordOutcome::Skipped {
                    error: "pairing \"x\" unsupported".into(),
                },
                ..ok_record(0, 0)
            },
            CellRecord {
                outcome: RecordOutcome::Failed {
                    error: "boom\nline2".into(),
                },
                ..ok_record(7, 0)
            },
        ] {
            let line = record.to_json();
            let back = CellRecord::from_json(&line).unwrap();
            assert_eq!(back, record);
            assert_eq!(back.to_json(), line, "encode must be idempotent");
        }
    }

    #[test]
    fn report_jsonl_round_trips_and_fingerprints_stably() {
        let report = ReportRecord {
            cells: vec![ok_record(0, 0), ok_record(1, 1), ok_record(2, 0)],
        };
        let text = report.to_jsonl();
        let back = ReportRecord::from_jsonl(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.fingerprint(), report.fingerprint());
        assert_eq!(report.fingerprint().len(), 16);
    }

    #[test]
    fn merged_sorts_and_dedups_by_index() {
        let a = ReportRecord {
            cells: vec![ok_record(2, 0), ok_record(0, 0)],
        };
        let b = ReportRecord {
            cells: vec![ok_record(1, 1), ok_record(2, 0)],
        };
        let merged = ReportRecord::merged([a, b]);
        let indices: Vec<usize> = merged.cells.iter().map(|c| c.index).collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(CellRecord::from_json("{\"kind\":\"cell\"}").is_err());
        assert!(CellRecord::from_json("{").is_err());
        assert!(ReportRecord::from_jsonl("{\"kind\":\"cell-record\"}\n").is_err());
        // Blank lines are tolerated (the store's segment writer ends files
        // with a newline).
        assert_eq!(
            ReportRecord::from_jsonl("\n\n").unwrap(),
            ReportRecord::default()
        );
    }

    #[test]
    fn a_repetition_beyond_the_index_is_a_typed_decode_error() {
        // `grouped_indices` keys groups on `index - repetition`; a log line
        // claiming repetition 3 of cell 2 used to decode fine and then
        // overflow that subtraction (a panic in debug, a wrapped garbage
        // key in release) once summaries were asked for.
        let line = CellRecord {
            repetition: 3,
            ..ok_record(2, 0)
        }
        .to_json();
        assert!(matches!(
            CellRecord::from_json(&line),
            Err(SpecError::Invalid { .. })
        ));
        assert!(ReportRecord::from_jsonl(&format!("{line}\n")).is_err());
        // The boundary case is a real cell: repetition == index is cell
        // `index` of a one-grid-cell campaign.
        let edge = CellRecord {
            repetition: 2,
            ..ok_record(2, 0)
        };
        let back = ReportRecord::from_jsonl(&edge.to_json()).unwrap();
        assert_eq!(back.summaries().len(), 1);
    }

    #[test]
    fn trajectory_files_read_back_merge_and_rewrite_atomically() {
        let lines: Vec<(usize, String)> = [3usize, 0, 2]
            .iter()
            .map(|&i| (i, format!("{{\"kind\":\"cell\",\"index\":{i}}}")))
            .collect();
        let header = "{\"kind\":\"campaign\",\"fingerprint\":\"ab\"}";
        let text = assemble(header, &lines);
        assert_eq!(
            text.lines().collect::<Vec<_>>(),
            vec![header, &lines[1].1, &lines[2].1, &lines[0].1]
        );
        // Later duplicates win; reading keeps file order and skips what is
        // torn, blank, of another kind or without an index.
        let newer = (
            2usize,
            "{\"kind\":\"cell\",\"index\":2,\"v\":2}".to_string(),
        );
        let merged = assemble(header, &[lines.clone(), vec![newer.clone()]].concat());
        assert_eq!(merged.lines().nth(2), Some(newer.1.as_str()));
        let noisy = format!(
            "{merged}\n{{\"kind\":\"summary\",\"index\":9}}\n{{\"kind\":\"cell\"}}\n{{\"kind\":\"cell\",\"ind"
        );
        let kept = read_lines(&noisy, "campaign", "cell", "ab").unwrap();
        assert_eq!(
            kept,
            vec![lines[1].clone(), newer.clone(), lines[0].clone()]
        );
        // Refusals name both fingerprints / the expected kind.
        let foreign = read_lines(&text, "campaign", "cell", "cd").unwrap_err();
        assert!(
            foreign.contains("ab") && foreign.contains("cd"),
            "{foreign}"
        );
        assert!(read_lines(&text, "redteam", "unit", "ab")
            .unwrap_err()
            .contains("redteam"));
        assert!(read_lines("", "campaign", "cell", "ab").is_err());
        assert!(read_lines("{", "campaign", "cell", "ab").is_err());
        assert!(read_lines("{\"kind\":\"campaign\"}", "campaign", "cell", "ab").is_err());

        let dir = std::env::temp_dir().join(format!("report-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_atomic(&path, "old\n").unwrap();
        write_atomic(&path, &text).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "no temp file left"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grouping_follows_the_grid_key_not_names() {
        // Two grid cells with identical display names: repetition resets the
        // key, so they stay separate groups.
        let records = vec![ok_record(0, 0), ok_record(1, 1), ok_record(2, 0)];
        let groups = grouped_indices(&records);
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
        let summaries = summaries_of(&records);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].executed, 2);
        assert_eq!(summaries[0].stat("network_rounds").unwrap().count, 2);
    }
}
