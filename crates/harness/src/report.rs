//! The campaign-report codec: the flat record of one finished cell, and the
//! trajectory file around it.
//!
//! A [`CellRecord`] is the plain-data form of one executed
//! [`CampaignCell`]: the cell's grid coordinates plus
//! exactly the facet values the summary aggregation consumes — no live
//! `RunReport`, no outputs, no traces.  It is the one form a finished cell
//! takes between the worker and every byte the system writes:
//!
//! * **`cells.log`** — [`CellRecord::to_json`] is a lossless round trip with
//!   [`CellRecord::from_json`] (property-tested in `tests/codec_props.rs`;
//!   numbers ride the exact-token [`crate::json`] layer, so `u64` seeds and
//!   shortest-form `f64` facets survive byte for byte);
//! * **the trajectory** — [`CellRecord::cell_line`] is the only encoder of
//!   the `kind:"cell"` line ([`cell_json`](crate::campaign::cell_json)
//!   flattens a live cell and calls it), which is what lets a server-side
//!   store answer `GET /jobs/{fp}/trajectory` with the exact bytes a one-shot
//!   CLI run writes;
//! * **the summaries** — [`summaries_of`] is the only aggregator
//!   ([`CampaignReport::summaries`](crate::CampaignReport::summaries) calls
//!   it and lays the traced wall-clock profiles over the same groups), so a
//!   summary recomputed from stored records is byte-identical to the one the
//!   live run printed.
//!
//! The report fingerprint `campaignd` serves is FNV-1a over the records'
//! `to_json` lines in index order, each followed by a newline: two reports
//! fingerprint equal iff they carry the same cells, no matter which process
//! (CLI run, server worker, store replay) produced them.
//!
//! The log files live here too, once.  [`replay`] is the one reader of an
//! append-only log (whole lines kept, a torn tail cut durably) and
//! [`append_lines`] the one append (one write, then the caller's
//! `sync_data`); `campaignd`'s store runs `cells.log` through both.  A trajectory file is such a log:
//! [`trajectory_header`] keys it to its spec, [`resume_trajectory`] opens it
//! for a run of the `campaign` or `redteam` CLI (replaying what is on file,
//! foreign fingerprints refused), the run appends each executed chunk
//! ([`TrajectoryLog::append`]), and [`TrajectoryLog::finish`] rewrites the
//! file into index order only when a resume left it out of order.
//! [`read_lines`] parses a trajectory's lines, [`assemble`] merges kept and
//! fresh lines in index order and [`write_atomic`] replaces a file
//! crash-safely.

use crate::campaign::{CampaignCell, GroupSummary};
use crate::json::{self, JsonValue, Reader};
use crate::spec::{CampaignSpec, SpecError};
use crate::stats::StatSummary;
use std::collections::HashSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};

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
    /// (empty unless the cell executed), in [`summaries_of`]'s stat order.
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
        // repetition never exceeds its index; `summaries_of` subtracts the
        // two, and a log line is outside input.
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

    /// The `kind:"cell"` trajectory line of this cell — the line's only
    /// encoder, so the `campaign` CLI's file and the server's trajectory
    /// endpoint write the same bytes (no trailing newline).
    pub fn cell_line(&self) -> String {
        json::object(|w| {
            w.str("kind", "cell")
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
                    agrees,
                    notes_type,
                    notes,
                    ..
                } => {
                    w.u64("payload_rounds", *payload_rounds as u64)
                        .u64("network_rounds", *network_rounds as u64)
                        .f64(
                            "overhead",
                            *network_rounds as f64 / (*payload_rounds).max(1) as f64,
                        )
                        .u64("corrupted_edge_rounds", *corrupted_edge_rounds as u64)
                        .opt_bool("agrees", *agrees)
                        .obj("notes", |w| {
                            w.str("type", notes_type);
                            for (name, value) in notes {
                                w.f64(name, *value);
                            }
                        });
                }
                RecordOutcome::Skipped { error } | RecordOutcome::Failed { error } => {
                    w.str("error", error);
                }
            }
        })
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

/// Replay an append-only log of `\n`-terminated lines — the one replay of
/// `campaignd`'s `cells.log` and of the CLIs' trajectory files.  Read `path`
/// and hand the text of its whole lines (every byte up to its last `\n`) to
/// `accept`.  Once `accept` has taken them, any bytes after the last `\n`,
/// an append a crash tore, are cut off and the new length fsync'd, so the
/// next append starts on a line of its own.  A file `accept` refuses is left
/// as it is.  `Ok(None)` when there is no file; otherwise `accept`'s value
/// and whether a torn tail was cut.
pub fn replay<T>(
    path: &Path,
    accept: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<(T, bool)>, String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let kept = accept(&String::from_utf8_lossy(&bytes[..whole]))?;
    let torn = whole < bytes.len();
    if torn {
        let cut = |e: std::io::Error| format!("cannot cut its torn tail: {e}");
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(cut)?;
        file.set_len(whole as u64).map_err(cut)?;
        file.sync_all().map_err(cut)?;
    }
    Ok(Some((kept, torn)))
}

/// Append `lines` to the log at `path` (created if missing), each followed
/// by `\n`, in one write, and return the file for its `sync_data`.  Once
/// this returns the lines survive the process; once that `sync_data`
/// returns, any crash.  A crash before leaves at worst a torn last line,
/// which [`replay`] cuts.
pub fn append_lines<'a>(
    path: &Path,
    lines: impl IntoIterator<Item = &'a str>,
) -> std::io::Result<std::fs::File> {
    let mut text = String::new();
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(text.as_bytes())?;
    Ok(file)
}

/// A trajectory file kept as an append-only log: the whole file cycle of the
/// `campaign` and `redteam` CLIs, opened by [`resume_trajectory`].  The
/// runner [`append`](TrajectoryLog::append)s each executed chunk's lines as
/// the chunk finishes and [`finish`](TrajectoryLog::finish) leaves the file
/// in the one-shot form.  An append writes before it returns, so a killed
/// run loses at most the chunk in flight; its `sync_data` runs on a thread
/// of its own while the next chunk runs, as `campaignd`'s committer
/// overlaps its fsync, so a machine crash loses at most the chunk in flight
/// and the one whose `sync_data` is under way.  A
/// file this run starts afresh holds its header from its first write on:
/// the header and the first chunk replace it together ([`write_atomic`]).
pub struct TrajectoryLog {
    path: PathBuf,
    header: String,
    header_kind: String,
    fingerprint: String,
    line_kind: String,
    total: usize,
    missing: Vec<usize>,
    present: usize,
    /// Lines on file, the header included; `0` until a run that starts
    /// the file afresh writes it.
    lines: usize,
    /// The index of the last line on file.
    last: Option<usize>,
    /// Whether the file is the header followed by unique, in-grid lines in
    /// ascending order: the one-shot form, which `finish` leaves as it is.
    in_order: bool,
    /// Whether this run appended to the file.
    appended: bool,
    /// The `sync_data` of the last append, while it runs.
    syncing: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

/// Open the trajectory file `out` for one run of `wanted`, the CLIs'
/// `--resume` cycle.
///
/// With `resume`, the lines already in `out` are kept: the file must open
/// with a header of `header`'s kind and fingerprint ([`read_lines`]), a
/// torn tail is cut ([`replay`]), unparseable lines are skipped, and a
/// `line_kind` line whose index is not below `total` (no such cell or unit
/// exists) is dropped.  Lines of indices outside `wanted` stay, so
/// sequential sharded resumes accumulate the one-shot file.  The indices of
/// `wanted` that no kept line covers are [`missing`](TrajectoryLog::missing),
/// in order.  Without `resume`, or with no file yet, every index of
/// `wanted` is missing, and the first append replaces the file.
pub fn resume_trajectory(
    out: &Path,
    header: &str,
    line_kind: &str,
    total: usize,
    wanted: &[usize],
    resume: bool,
) -> Result<TrajectoryLog, String> {
    let ours = json::parse(header).map_err(|e| format!("trajectory header: {e}"))?;
    let ours = Reader::new(&ours, "");
    let mut log = TrajectoryLog {
        path: out.to_path_buf(),
        header: header.to_string(),
        header_kind: ours.opt_str("kind").unwrap_or_default().to_string(),
        fingerprint: ours.opt_str("fingerprint").unwrap_or_default().to_string(),
        line_kind: line_kind.to_string(),
        total,
        missing: Vec::new(),
        present: 0,
        lines: 0,
        last: None,
        in_order: true,
        appended: false,
        syncing: None,
    };
    let kept = if resume {
        replay(out, |text| {
            let on_file = text.lines().count().saturating_sub(1);
            let kept = log.kept_lines(text)?;
            Ok((kept, on_file))
        })
        .map_err(|e| format!("trajectory {}: {e}", out.display()))?
    } else {
        None
    };
    let present: HashSet<usize> = match kept {
        Some(((kept, on_file), _)) => {
            let ascending = kept.windows(2).all(|pair| pair[0].0 < pair[1].0);
            log.in_order = ascending && kept.len() == on_file;
            log.lines = 1 + kept.len();
            log.last = kept.last().map(|(index, _)| *index);
            kept.into_iter().map(|(index, _)| index).collect()
        }
        None => HashSet::new(),
    };
    log.present = present.len();
    log.missing = wanted
        .iter()
        .copied()
        .filter(|index| !present.contains(index))
        .collect();
    Ok(log)
}

impl TrajectoryLog {
    /// The indices of `wanted` to run, ascending.
    pub fn missing(&self) -> &[usize] {
        &self.missing
    }

    /// How many distinct indices the file already held.
    pub fn present(&self) -> usize {
        self.present
    }

    /// Append one executed chunk's `(index, line)` pairs ([`append_lines`])
    /// once the last append's `sync_data` has returned, and start this one's;
    /// into a file this run starts afresh, the header and the chunk replace
    /// it together (its directory created first, [`write_atomic`]).  A failed
    /// `sync_data` is returned by the next `append` or by `finish`.
    pub fn append(&mut self, lines: &[(usize, String)]) -> Result<(), String> {
        self.synced()?;
        let out = self.path.display();
        let fresh = lines.iter().map(|(_, line)| line.as_str());
        if self.lines == 0 {
            if let Some(parent) = self.path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let text: String = std::iter::once(self.header.as_str())
                .chain(fresh)
                .flat_map(|line| [line, "\n"])
                .collect();
            write_atomic(&self.path, &text)
                .map_err(|e| format!("cannot write trajectory {out}: {e}"))?;
            self.lines = 1;
        } else {
            let file = append_lines(&self.path, fresh)
                .map_err(|e| format!("cannot append to trajectory {out}: {e}"))?;
            self.syncing = Some(std::thread::spawn(move || file.sync_data()));
        }
        for (index, _) in lines {
            self.in_order &= self.last.is_none_or(|last| last < *index);
            self.last = Some(*index);
        }
        self.lines += lines.len();
        self.appended = true;
        Ok(())
    }

    /// Wait for the last append's `sync_data`.
    fn synced(&mut self) -> Result<(), String> {
        let Some(sync) = self.syncing.take() else {
            return Ok(());
        };
        sync.join()
            .expect("a trajectory fsync panicked")
            .map_err(|e| format!("cannot sync trajectory {}: {e}", self.path.display()))
    }

    /// Leave the file in its one-shot form: when it is not the header
    /// followed by unique, in-grid lines in ascending order (a resume that
    /// filled gaps, a later shard, a stray or unparseable line), rewrite it
    /// as the header and its kept lines in index order ([`assemble`],
    /// [`write_atomic`]).  The number of lines on file, header included,
    /// when this run wrote the file; `None` when it left it as it was.
    pub fn finish(mut self) -> Result<Option<usize>, String> {
        self.synced()?;
        if self.in_order {
            return Ok(self.appended.then_some(self.lines));
        }
        let out = self.path.display();
        let lines = replay(&self.path, |text| self.kept_lines(text))
            .map_err(|e| format!("trajectory {out}: {e}"))?
            .map(|(lines, _)| lines)
            .ok_or_else(|| format!("trajectory {out} is gone"))?;
        let text = assemble(&self.header, &lines);
        write_atomic(&self.path, &text)
            .map_err(|e| format!("cannot write trajectory {out}: {e}"))?;
        Ok(Some(text.lines().count()))
    }

    /// The file's well-formed, in-grid lines ([`read_lines`]).
    fn kept_lines(&self, text: &str) -> Result<Vec<(usize, String)>, String> {
        let mut lines = read_lines(text, &self.header_kind, &self.line_kind, &self.fingerprint)
            .map_err(|e| format!("{e}; delete it or pick another --out"))?;
        lines.retain(|(index, _)| *index < self.total);
        Ok(lines)
    }
}

/// Aggregate records, in index order, into per-grid-cell [`GroupSummary`]s
/// — the one summary implementation (the live
/// [`CampaignReport::summaries`](crate::CampaignReport::summaries) flattens
/// its cells and calls it).  Records are grouped on the key
/// `index - repetition` (the global index of the grid cell's repetition 0)
/// over contiguous runs, so non-contiguous subsets (shards, resumed or
/// partially stored jobs) aggregate per grid cell and never glue repetitions
/// onto a neighbouring cell.  Stats follow [`CellRecord::facets`] order.
pub fn summaries_of<'a>(records: impl IntoIterator<Item = &'a CellRecord>) -> Vec<GroupSummary> {
    /// Each facet's samples, in first-seen order.
    type Samples = Vec<(String, Vec<f64>)>;
    let mut groups: Vec<(usize, GroupSummary, Samples)> = Vec::new();
    for record in records {
        let key = record.index - record.repetition;
        if groups.last().map(|(k, ..)| *k) != Some(key) {
            let summary = GroupSummary {
                graph: record.graph.clone(),
                adversary: record.adversary.clone(),
                compiler: record.compiler.clone(),
                executed: 0,
                skipped: 0,
                failed: 0,
                disagreements: 0,
                stats: Vec::new(),
                profile: Vec::new(),
            };
            groups.push((key, summary, Vec::new()));
        }
        let (_, summary, samples) = groups.last_mut().expect("a group was just opened");
        match &record.outcome {
            RecordOutcome::Ok { agrees, .. } => {
                summary.executed += 1;
                if *agrees == Some(false) {
                    summary.disagreements += 1;
                }
                for (name, value) in record.facets() {
                    match samples.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, values)) => values.push(value),
                        None => samples.push((name, vec![value])),
                    }
                }
            }
            RecordOutcome::Skipped { .. } => summary.skipped += 1,
            RecordOutcome::Failed { .. } => summary.failed += 1,
        }
    }
    groups
        .into_iter()
        .map(|(_, mut summary, samples)| {
            summary.stats = samples
                .into_iter()
                .filter_map(|(name, values)| StatSummary::of(&values).map(|s| (name, s)))
                .collect();
            summary
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
        // A report's `cells.log` form: one `to_json` line per record.
        let jsonl = |records: &[CellRecord]| -> String {
            records.iter().map(|r| r.to_json() + "\n").collect()
        };
        let records = vec![ok_record(0, 0), ok_record(1, 1), ok_record(2, 0)];
        let text = jsonl(&records);
        let back: Vec<CellRecord> = text
            .lines()
            .map(|line| CellRecord::from_json(line).unwrap())
            .collect();
        assert_eq!(back, records);
        let fingerprint = json::fnv1a_hex(text.bytes());
        assert_eq!(json::fnv1a_hex(jsonl(&back).bytes()), fingerprint);
        assert_eq!(fingerprint.len(), 16);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(CellRecord::from_json("{\"kind\":\"cell\"}").is_err());
        assert!(CellRecord::from_json("{").is_err());
        assert!(CellRecord::from_json("{\"kind\":\"cell-record\"}").is_err());
        assert!(CellRecord::from_json("").is_err());
    }

    #[test]
    fn a_repetition_beyond_the_index_is_a_typed_decode_error() {
        // `summaries_of` keys groups on `index - repetition`; a log line
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
        // The boundary case is a real cell: repetition == index is cell
        // `index` of a one-grid-cell campaign.
        let edge = CellRecord {
            repetition: 2,
            ..ok_record(2, 0)
        };
        let back = CellRecord::from_json(&edge.to_json()).unwrap();
        assert_eq!(summaries_of([&back]).len(), 1);
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
        let summaries = summaries_of(&records);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].executed, 2);
        assert_eq!(summaries[0].stat("network_rounds").unwrap().count, 2);
        assert_eq!(summaries[1].executed, 1);
        // A shard's subset: repetition 1 of the first grid cell and
        // repetition 0 of the second are adjacent but never glued.
        assert_eq!(summaries_of([&records[1], &records[2]]).len(), 2);
    }
}
