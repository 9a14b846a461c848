//! Campaigns: batched grids of graph × adversary × compiler × seed-repetition
//! cells, executed deterministically in parallel and aggregated into
//! campaign-level summaries with a JSONL export.

use crate::artifact_cache::ArtifactCache;
use crate::engine;
use crate::json;
use crate::spec::{CampaignSpec, SpecError};
use crate::stats::StatSummary;
use congest_sim::scenario::matrix::{run_cell, AdversarySpec, CompilerSpec, GraphSpec};
use congest_sim::scenario::{BoxedAlgorithm, RunReport, ScenarioError};
use netgraph::Graph;
use std::sync::Arc;

/// A shareable payload factory: receives the cell's graph, returns a fresh
/// boxed payload instance.
pub type SharedPayload = Arc<dyn Fn(&Graph) -> BoxedAlgorithm + Send + Sync>;

/// Mix a per-cell seed out of the campaign seed and the cell index: the
/// SplitMix64 finalizer applied to
/// `campaign_seed + 0x9E3779B97F4A7C15 + index · 0xBF58476D1CE4E5B9`
/// (all wrapping).
///
/// The seed depends only on the cell's position in the enumeration order —
/// never on which worker thread claims it or when — so campaign results are
/// byte-identical at any thread count.
pub fn cell_seed(campaign_seed: u64, cell_index: usize) -> u64 {
    let mut z = campaign_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((cell_index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A batched experiment grid: every graph × adversary × compiler cell of the
/// campaign runs `repetitions` times with per-repetition seeds, fanned across
/// worker threads by the deterministic engine.
///
/// See the crate docs for a runnable end-to-end example.
pub struct Campaign {
    graphs: Vec<GraphSpec>,
    adversaries: Vec<AdversarySpec>,
    compilers: Vec<CompilerSpec>,
    payload: Option<SharedPayload>,
    repetitions: usize,
    seed: u64,
    threads: usize,
    shard: Option<(usize, usize)>,
    trace: obs::TraceSpec,
    /// The shared compile-artifact cache, if this campaign runs cached.
    cache: Option<Arc<ArtifactCache>>,
    /// Canonical cache keys per `(graph, compiler)` pair, `gi * n_c + ci`
    /// order.  Only spec-built campaigns know their defs and get keys;
    /// hand-built campaigns run uncached.
    pair_keys: Option<Vec<String>>,
}

impl Campaign {
    /// Start a campaign with the given base seed.
    pub fn new(seed: u64) -> Self {
        Campaign {
            graphs: Vec::new(),
            adversaries: Vec::new(),
            compilers: Vec::new(),
            payload: None,
            repetitions: 1,
            seed,
            threads: 0,
            shard: None,
            trace: obs::TraceSpec::off(),
            cache: None,
            pair_keys: None,
        }
    }

    /// Reconstruct a campaign from its serializable data form: every
    /// [`GraphDef`](netgraph::GraphDef) is resolved through
    /// `netgraph::generators`, every
    /// [`AdversaryDef`](congest_sim::scenario::matrix::AdversaryDef) and
    /// [`CompilerDef`](mobile_congest_core::adapters::CompilerDef) through
    /// its registry, and the payload through
    /// [`PayloadDef`](crate::spec::PayloadDef) — the same entry points the
    /// hand-built zoos use, so the resulting report is **byte-identical** to
    /// the equivalent hand-built campaign at any thread count.
    pub fn from_spec(spec: &CampaignSpec) -> Result<Campaign, SpecError> {
        spec.validate()?;
        let graphs = spec
            .grid
            .graphs
            .iter()
            .map(GraphSpec::from_def)
            .collect::<Result<Vec<_>, _>>()?;
        // Front-load payload × graph validation too: a flood source beyond
        // some grid graph's node count must be a typed error here, not a
        // panic inside a worker thread.
        for gspec in &graphs {
            spec.grid.payload.validate(&gspec.name, &gspec.graph)?;
        }
        let payload = spec.grid.payload.clone();
        // The spec layer knows the defs behind every axis, so spec-built
        // campaigns get artifact-cache keys (canonical def JSON — collision
        // free) and a per-campaign cache, shared or disabled via
        // [`Campaign::artifact_cache`] / [`Campaign::without_artifact_cache`].
        let graph_jsons: Vec<String> = spec
            .grid
            .graphs
            .iter()
            .map(crate::spec::graph_to_json)
            .collect();
        let compiler_jsons: Vec<String> = spec
            .grid
            .compilers
            .iter()
            .map(crate::spec::compiler_to_json)
            .collect();
        let mut pair_keys = Vec::with_capacity(graph_jsons.len() * compiler_jsons.len());
        for gj in &graph_jsons {
            for cj in &compiler_jsons {
                pair_keys.push(ArtifactCache::pair_key(gj, cj));
            }
        }
        let mut campaign = Campaign::new(spec.seed)
            .graphs(graphs)
            .adversaries(spec.grid.adversaries.iter().map(|d| d.to_spec()).collect())
            .compilers(spec.grid.compilers.iter().map(|d| d.to_spec()).collect())
            .payload(move |g: &Graph| payload.build(g))
            .repetitions(spec.repetitions);
        campaign.pair_keys = Some(pair_keys);
        campaign.cache = Some(Arc::new(ArtifactCache::new()));
        Ok(campaign)
    }

    /// The graph axis of the grid.
    pub fn graphs(mut self, graphs: Vec<GraphSpec>) -> Self {
        self.graphs = graphs;
        self
    }

    /// The adversary axis of the grid.
    pub fn adversaries(mut self, adversaries: Vec<AdversarySpec>) -> Self {
        self.adversaries = adversaries;
        self
    }

    /// The compiler axis of the grid.
    pub fn compilers(mut self, compilers: Vec<CompilerSpec>) -> Self {
        self.compilers = compilers;
        self
    }

    /// The payload factory: receives the cell's graph, returns a fresh boxed
    /// instance on every call.
    pub fn payload<P>(mut self, payload: P) -> Self
    where
        P: Fn(&Graph) -> BoxedAlgorithm + Send + Sync + 'static,
    {
        self.payload = Some(Arc::new(payload));
        self
    }

    /// Seed repetitions per grid cell (clamped to at least 1; default 1).
    /// Each repetition gets its own derived seed, so the aggregated summaries
    /// measure seed-to-seed spread.
    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions.max(1);
        self
    }

    /// Worker threads to fan the cells across (`0`, the default, uses the
    /// machine's available parallelism).  The thread count never changes the
    /// results, only the wall clock.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Per-cell tracing (default [`obs::TraceSpec::off`]).  Cells record into
    /// ring sinks inside the workers — no I/O on the worker threads — and the
    /// harvested event streams and per-phase profiles ride back on each
    /// cell's [`RunReport`].  Streams carry virtual time only, so they are
    /// byte-identical at any thread count; only the out-of-band wall-clock
    /// profile varies run to run.
    pub fn trace(mut self, trace: obs::TraceSpec) -> Self {
        self.trace = trace;
        self
    }

    /// Share an existing [`ArtifactCache`] — the form `campaignd` uses so
    /// every batch and job of a daemon reuses one cache.  Only campaigns
    /// built by [`Campaign::from_spec`] consult it (hand-built campaigns
    /// have no def-derived keys), and traced runs always bypass it so every
    /// cell's event stream still carries its packing spans.
    pub fn artifact_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Disable the compile-artifact cache: every cell calls `prepare`
    /// itself, exactly as a hand-built campaign does.  Reports are
    /// byte-identical either way; this exists for measurement (the bench
    /// package's cache probes) and as the CLI `--no-cache` escape hatch.
    pub fn without_artifact_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// The campaign's artifact cache, if it has one — read the hit/miss
    /// counters from here after [`Campaign::run`].
    pub fn artifact_cache_handle(&self) -> Option<&Arc<ArtifactCache>> {
        self.cache.as_ref()
    }

    /// Restrict the campaign to shard `index` of `of`: cell `i` belongs to
    /// shard `i % of`.  Cells keep their **global** index and therefore their
    /// seed, so the union of all `of` shard runs (see
    /// [`CampaignReport::merged`]) is byte-identical to the unsharded run —
    /// the partition is safe for multi-machine fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `of` is zero or `index >= of`.
    pub fn shard(mut self, index: usize, of: usize) -> Self {
        assert!(of > 0, "shard count must be at least 1");
        assert!(
            index < of,
            "shard index {index} out of range for {of} shards"
        );
        self.shard = Some((index, of));
        self
    }

    /// Total number of cells in the full (unsharded) grid.
    pub fn cell_count(&self) -> usize {
        self.graphs.len() * self.adversaries.len() * self.compilers.len() * self.repetitions
    }

    /// The global cell indices this campaign will run: the full enumeration,
    /// filtered down to the configured [`Campaign::shard`] if any.
    pub fn cell_indices(&self) -> Vec<usize> {
        let all = 0..self.cell_count();
        match self.shard {
            None => all.collect(),
            Some((index, of)) => all.filter(|i| i % of == index).collect(),
        }
    }

    /// Execute every cell of the campaign across the worker pool and collect
    /// the report.
    ///
    /// Cells are enumerated graph-major, then adversary, then compiler, with
    /// repetitions innermost; each cell's RNG seed is [`cell_seed`]`(campaign
    /// seed, cell index)` and the whole cell is built and run inside the
    /// worker via [`matrix::run_cell`](congest_sim::scenario::matrix::run_cell),
    /// so the report is byte-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if no payload factory was configured.
    pub fn run(&self) -> CampaignReport {
        self.run_cells(&self.cell_indices())
    }

    /// Execute exactly the given **global** cell indices (out-of-range ones
    /// are ignored) — the entry point [`Campaign::run`], sharded runs and
    /// cell-level resume share.  Each cell's seed depends only on its global
    /// index, so any subset reproduces the same cells the full run would.
    ///
    /// # Panics
    ///
    /// Panics if no payload factory was configured.
    pub fn run_cells(&self, indices: &[usize]) -> CampaignReport {
        let payload = Arc::clone(
            self.payload
                .as_ref()
                .expect("Campaign::payload must be configured before run()"),
        );
        let reps = self.repetitions;
        let (n_a, n_c) = (self.adversaries.len(), self.compilers.len());
        let indices: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| i < self.cell_count())
            .collect();
        let threads = if self.threads == 0 {
            engine::default_threads()
        } else {
            self.threads
        };
        // The cache is consulted only when (a) this campaign has one, (b) it
        // was spec-built and therefore knows its def-derived keys, and (c)
        // tracing is off — `prepare` emits packing spans into the cell's
        // event stream, and a cache hit would elide them from every cell but
        // the first, changing traced fingerprints.
        let cache = match (&self.cache, &self.pair_keys) {
            (Some(cache), Some(keys)) if !self.trace.enabled => Some((cache, keys)),
            _ => None,
        };

        let cells = engine::run_indexed(threads, indices.len(), |slot| {
            let index = indices[slot];
            // Invert the enumeration order: repetition innermost.
            let rep = index % reps;
            let ci = (index / reps) % n_c;
            let ai = (index / (reps * n_c)) % n_a;
            let gi = index / (reps * n_c * n_a);
            let (gspec, aspec, cspec) =
                (&self.graphs[gi], &self.adversaries[ai], &self.compilers[ci]);
            let seed = cell_seed(self.seed, index);
            let cell_payload = {
                let p = Arc::clone(&payload);
                move |g: &Graph| p(g)
            };
            // The pair's verdict, rejection included, goes to the cell as is.
            let verdict = cache.map(|(cache, keys)| {
                cache.get_or_prepare(&keys[gi * n_c + ci], || {
                    cspec
                        .instantiate()
                        .prepare(&gspec.graph, &mut obs::Tracer::disabled())
                })
            });
            CampaignCell {
                index,
                graph: gspec.name.clone(),
                adversary: aspec.name.clone(),
                compiler: cspec.name.clone(),
                repetition: rep,
                seed,
                outcome: run_cell(
                    gspec,
                    aspec,
                    cspec,
                    &cell_payload,
                    seed,
                    self.trace,
                    verdict,
                ),
            }
        });
        CampaignReport { cells }
    }
}

/// One executed campaign cell.
#[derive(Debug)]
pub struct CampaignCell {
    /// Position in the campaign's enumeration order (drives the seed).
    pub index: usize,
    /// Graph name.
    pub graph: String,
    /// Adversary name.
    pub adversary: String,
    /// Compiler name.
    pub compiler: String,
    /// Repetition number within the grid cell.
    pub repetition: usize,
    /// The derived per-cell seed.
    pub seed: u64,
    /// The run report, or the typed reason the cell could not run.
    pub outcome: Result<RunReport, ScenarioError>,
}

impl CampaignCell {
    /// Whether the cell was skipped by validation (structurally incompatible
    /// configuration) as opposed to having failed at runtime.
    pub fn skipped(&self) -> bool {
        matches!(&self.outcome, Err(e) if e.is_validation_error())
    }

    /// `ok` / `skipped` / `failed`, for the JSONL export.
    pub fn status(&self) -> &'static str {
        match &self.outcome {
            Ok(_) => "ok",
            Err(_) if self.skipped() => "skipped",
            Err(_) => "failed",
        }
    }
}

/// Aggregated view of one grid cell (graph × adversary × compiler) over its
/// repetitions.
#[derive(Debug)]
pub struct GroupSummary {
    /// Graph name.
    pub graph: String,
    /// Adversary name.
    pub adversary: String,
    /// Compiler name.
    pub compiler: String,
    /// Repetitions that executed to a report.
    pub executed: usize,
    /// Repetitions skipped by validation.
    pub skipped: usize,
    /// Repetitions that failed at runtime.
    pub failed: usize,
    /// Executed repetitions whose outputs diverged from the fault-free
    /// reference.
    pub disagreements: usize,
    /// Five-number summaries per facet, in stable order: the shared run
    /// metrics (`network_rounds`, `payload_rounds`, `overhead`,
    /// `corrupted_edge_rounds`) followed by the compiler's typed
    /// [`CompilerNotes`](congest_sim::scenario::CompilerNotes) metrics
    /// (`rewinds`, `fully_corrected`, `key_rounds`,
    /// `good_trees`, …).
    pub stats: Vec<(String, StatSummary)>,
    /// Per-phase wall-time aggregate over the group's executed repetitions:
    /// `(phase name, closed spans, total milliseconds)`, in [`obs::Phase`]
    /// order, phases with no spans omitted.  Empty unless the campaign ran
    /// with tracing enabled ([`Campaign::trace`]); wall times are measurement,
    /// not data — they never enter fingerprints or cell JSONL lines.
    pub profile: Vec<(String, u64, f64)>,
}

impl GroupSummary {
    /// Look up one facet summary by name.
    pub fn stat(&self, name: &str) -> Option<&StatSummary> {
        self.stats.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// Everything a campaign produced, in enumeration order.
#[derive(Debug)]
pub struct CampaignReport {
    /// All cells, ordered by [`CampaignCell::index`].
    pub cells: Vec<CampaignCell>,
}

impl CampaignReport {
    /// Merge shard (or resume) reports back into one, re-establishing the
    /// global enumeration order.  The union of all [`Campaign::shard`] runs
    /// merged this way is byte-identical to the unsharded run.  Overlapping
    /// shards are tolerated: cells sharing a global index are deduplicated
    /// (first occurrence wins), which is sound because a cell's seed — and
    /// therefore its entire execution — depends only on its global index.
    pub fn merged(reports: impl IntoIterator<Item = CampaignReport>) -> CampaignReport {
        let mut cells: Vec<CampaignCell> = reports.into_iter().flat_map(|r| r.cells).collect();
        cells.sort_by_key(|c| c.index);
        cells.dedup_by_key(|c| c.index);
        CampaignReport { cells }
    }

    /// Cells that executed rather than being skipped by validation.
    pub fn executed(&self) -> impl Iterator<Item = &CampaignCell> {
        self.cells.iter().filter(|c| !c.skipped())
    }

    /// Number of validation-skipped cells.
    pub fn skipped_count(&self) -> usize {
        self.cells.iter().filter(|c| c.skipped()).count()
    }

    /// Whether every executed non-baseline cell produced outputs that agree
    /// with the fault-free reference.
    pub fn all_protected_cells_agree(&self) -> bool {
        self.executed().all(|cell| match &cell.outcome {
            Ok(report) => report.protected_cell_ok(),
            Err(_) => false,
        })
    }

    /// Aggregate the repetitions of every grid cell into summaries
    /// (mean/stddev plus the order statistics), in enumeration order.
    ///
    /// The aggregation itself (grouping on the grid-cell key
    /// `index - repetition`, facet extraction, the stats) is shared with the
    /// serializable record form ([`crate::report::summaries_of`]) — a summary
    /// recomputed from stored [`CellRecord`](crate::report::CellRecord)s is
    /// byte-identical to this one.  On top, the live path overlays the
    /// per-group wall-clock [`GroupSummary::profile`] harvested from the
    /// in-memory reports of traced runs; wall times are measurement, not
    /// data, and never enter the record form.
    pub fn summaries(&self) -> Vec<GroupSummary> {
        let records: Vec<crate::report::CellRecord> = self
            .cells
            .iter()
            .map(crate::report::CellRecord::of)
            .collect();
        let mut summaries = crate::report::summaries_of(&records);
        for (summary, members) in summaries
            .iter_mut()
            .zip(crate::report::grouped_indices(&records))
        {
            let mut profile = obs::PhaseProfile::default();
            for &i in &members {
                if let Ok(report) = &self.cells[i].outcome {
                    profile.merge(&report.trace.profile);
                }
            }
            summary.profile = profile
                .rows()
                .into_iter()
                .map(|(name, spans, nanos)| (name.to_string(), spans, nanos as f64 / 1.0e6))
                .collect();
        }
        summaries
    }

    /// The JSONL export for the bench trajectory: one `kind:"cell"` line per
    /// cell (status, run metrics, typed notes) followed by one
    /// `kind:"summary"` line per grid cell (the mean/min/max/p50/p99
    /// aggregates).  Deterministic byte-for-byte at any thread count.
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_with(&self.summaries())
    }

    /// [`CampaignReport::to_jsonl`] with a precomputed [`summaries`] result,
    /// so callers that also print the summaries aggregate only once.
    ///
    /// [`summaries`]: CampaignReport::summaries
    pub fn to_jsonl_with(&self, summaries: &[GroupSummary]) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&cell_json(cell));
            out.push('\n');
        }
        for summary in summaries {
            out.push_str(&summary_json(summary));
            out.push('\n');
        }
        out
    }

    /// A canonical serialization of every cell (debug-formatted reports and
    /// errors, in enumeration order).  Two campaigns are byte-identical iff
    /// their fingerprints are — this is what the determinism regression test
    /// compares across thread counts.
    pub fn fingerprint(&self) -> String {
        format!("{:?}", self.cells)
    }

    /// A formatted per-group summary table.
    pub fn to_table(&self) -> String {
        self.to_table_with(&self.summaries())
    }

    /// [`CampaignReport::to_table`] with a precomputed [`summaries`] result.
    ///
    /// [`summaries`]: CampaignReport::summaries
    pub fn to_table_with(&self, summaries: &[GroupSummary]) -> String {
        let mut out = format!(
            "{:<12} {:<22} {:<22} {:>5} {:>9} {:>9} {:>8} {:>9} {:>8}\n",
            "graph",
            "adversary",
            "compiler",
            "reps",
            "net p50",
            "net p99",
            "net sd",
            "overhead",
            "agree"
        );
        for s in summaries {
            if s.executed == 0 {
                out.push_str(&format!(
                    "{:<12} {:<22} {:<22} {:>5} skipped={} failed={}\n",
                    s.graph, s.adversary, s.compiler, 0, s.skipped, s.failed
                ));
                continue;
            }
            let net = s.stat("network_rounds");
            out.push_str(&format!(
                "{:<12} {:<22} {:<22} {:>5} {:>9} {:>9} {:>8.1} {:>9.1} {:>8}{}\n",
                s.graph,
                s.adversary,
                s.compiler,
                s.executed,
                net.map(|v| v.p50).unwrap_or(0.0),
                net.map(|v| v.p99).unwrap_or(0.0),
                net.map(|v| v.stddev).unwrap_or(0.0),
                s.stat("overhead").map(|v| v.mean).unwrap_or(0.0),
                if s.disagreements == 0 { "yes" } else { "NO" },
                // A group can agree on its executed repetitions and still
                // have runtime failures — don't let them hide.
                if s.failed > 0 {
                    format!("  failed={}", s.failed)
                } else {
                    String::new()
                },
            ));
        }
        out
    }
}

/// The primitive fields of one `kind:"cell"` trajectory line: what
/// [`cell_json`] extracts from a live cell and
/// [`CellRecord::cell_line`](crate::report::CellRecord::cell_line) from a
/// stored record, so [`encode_cell_line`] is the line's only encoder.
pub(crate) struct CellLine<'a, N> {
    pub index: usize,
    pub graph: &'a str,
    pub adversary: &'a str,
    pub compiler: &'a str,
    pub repetition: usize,
    pub seed: u64,
    pub status: &'a str,
    /// The executed run, or the rendered error of a skipped / failed cell.
    pub outcome: Result<CellLineRun<'a, N>, &'a str>,
}

/// The executed half of a [`CellLine`].
pub(crate) struct CellLineRun<'a, N> {
    pub payload_rounds: usize,
    pub network_rounds: usize,
    pub corrupted_edge_rounds: usize,
    pub agrees: Option<bool>,
    pub notes_type: &'a str,
    /// The typed notes metrics, in their canonical emission order.
    pub notes: N,
}

/// Encode one `kind:"cell"` line (no trailing newline).
pub(crate) fn encode_cell_line<'a, N>(cell: CellLine<'a, N>) -> String
where
    N: Iterator<Item = (&'a str, f64)>,
{
    json::object(|w| {
        w.str("kind", "cell")
            .u64("index", cell.index as u64)
            .str("graph", cell.graph)
            .str("adversary", cell.adversary)
            .str("compiler", cell.compiler)
            .u64("repetition", cell.repetition as u64)
            .u64("seed", cell.seed)
            .str("status", cell.status);
        match cell.outcome {
            Ok(run) => {
                w.u64("payload_rounds", run.payload_rounds as u64)
                    .u64("network_rounds", run.network_rounds as u64)
                    .f64(
                        "overhead",
                        run.network_rounds as f64 / run.payload_rounds.max(1) as f64,
                    )
                    .u64("corrupted_edge_rounds", run.corrupted_edge_rounds as u64)
                    .opt_bool("agrees", run.agrees)
                    .obj("notes", |notes| {
                        notes.str("type", run.notes_type);
                        for (name, value) in run.notes {
                            notes.f64(name, value);
                        }
                    });
            }
            Err(error) => {
                w.str("error", error);
            }
        }
    })
}

/// One `kind:"cell"` JSONL line (shared by [`CampaignReport::to_jsonl`] and
/// the campaign CLI's resumable trajectory files — a cell's line depends
/// only on the cell, never on which run produced it).
pub fn cell_json(cell: &CampaignCell) -> String {
    let error;
    encode_cell_line(CellLine {
        index: cell.index,
        graph: &cell.graph,
        adversary: &cell.adversary,
        compiler: &cell.compiler,
        repetition: cell.repetition,
        seed: cell.seed,
        status: cell.status(),
        outcome: match &cell.outcome {
            Ok(report) => Ok(CellLineRun {
                payload_rounds: report.payload_rounds,
                network_rounds: report.network_rounds,
                corrupted_edge_rounds: report.metrics.corrupted_edge_rounds,
                agrees: report.agrees_with_fault_free(),
                notes_type: report.notes.label(),
                notes: report.notes.metrics().into_iter(),
            }),
            Err(e) => {
                error = e.to_string();
                Err(error.as_str())
            }
        },
    })
}

/// One `kind:"summary"` JSONL line per grid cell (shared by
/// [`CampaignReport::to_jsonl`] and the campaign CLI's machine-parseable
/// stdout).  The `profile` object appears only on traced runs.
pub fn summary_json(s: &GroupSummary) -> String {
    json::object(|w| {
        w.str("kind", "summary")
            .str("graph", &s.graph)
            .str("adversary", &s.adversary)
            .str("compiler", &s.compiler)
            .u64("executed", s.executed as u64)
            .u64("skipped", s.skipped as u64)
            .u64("failed", s.failed as u64)
            .u64("disagreements", s.disagreements as u64)
            .obj("stats", |stats| {
                for (name, stat) in &s.stats {
                    stats.obj(name, |w| {
                        w.f64("mean", stat.mean)
                            .f64("stddev", stat.stddev)
                            .f64("min", stat.min)
                            .f64("max", stat.max)
                            .f64("p10", stat.p10)
                            .f64("p50", stat.p50)
                            .f64("p90", stat.p90)
                            .f64("p99", stat.p99);
                    });
                }
            });
        // Wall-clock profile: present only on traced runs, so untraced
        // summary lines stay byte-identical to pre-tracing output.
        if !s.profile.is_empty() {
            w.obj("profile", |profile| {
                for (name, spans, ms) in &s.profile {
                    profile.obj(name, |w| {
                        w.u64("spans", *spans).f64("ms", *ms);
                    });
                }
            });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_is_a_pure_function_of_campaign_seed_and_index() {
        assert_eq!(cell_seed(7, 3), cell_seed(7, 3));
        assert_ne!(cell_seed(7, 3), cell_seed(7, 4));
        assert_ne!(cell_seed(7, 3), cell_seed(8, 3));
    }

    #[test]
    fn shard_indices_partition_the_cell_space() {
        use congest_sim::scenario::matrix::{CompilerSpec, GraphSpec};
        use congest_sim::scenario::Uncompiled;
        use netgraph::generators;

        let make = || {
            Campaign::new(1)
                .graphs(vec![
                    GraphSpec::new("K4", generators::complete(4)),
                    GraphSpec::new("K5", generators::complete(5)),
                ])
                .adversaries(vec![AdversarySpec::new(
                    "none",
                    congest_sim::adversary::AdversaryRole::Byzantine,
                    congest_sim::adversary::CorruptionBudget::None,
                    |_| Box::new(congest_sim::adversary::NoAdversary),
                )])
                .compilers(vec![CompilerSpec::of(Uncompiled)])
                .repetitions(3)
        };
        let full = make().cell_indices();
        assert_eq!(full, (0..6).collect::<Vec<_>>());
        let mut union: Vec<usize> = (0..3)
            .flat_map(|i| make().shard(i, 3).cell_indices())
            .collect();
        union.sort_unstable();
        assert_eq!(union, full, "shards must partition the index space");
    }

    #[test]
    fn same_named_compiler_specs_are_summarised_separately() {
        use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
        use congest_sim::scenario::matrix::{AdversarySpec, CompilerSpec, GraphSpec};
        use congest_sim::scenario::{doctest_payload, Uncompiled};
        use netgraph::generators;

        // Two specs rendering to the identical display name ("uncompiled"):
        // grouping must follow the grid structure, not the names.
        let report = Campaign::new(5)
            .graphs(vec![GraphSpec::new("K5", generators::complete(5))])
            .adversaries(vec![AdversarySpec::new(
                "random-mobile",
                AdversaryRole::Byzantine,
                CorruptionBudget::Mobile { f: 1 },
                |seed| Box::new(RandomMobile::new(1, seed)),
            )])
            .compilers(vec![
                CompilerSpec::of(Uncompiled),
                CompilerSpec::of(Uncompiled),
            ])
            .payload(|g| Box::new(doctest_payload(g.clone())) as BoxedAlgorithm)
            .repetitions(2)
            .threads(1)
            .run();

        let summaries = report.summaries();
        assert_eq!(
            summaries.len(),
            2,
            "one summary per grid cell, not per name"
        );
        assert!(summaries.iter().all(|s| s.executed == 2));
    }

    #[test]
    fn a_hand_built_grid_covers_every_cell_and_skips_role_mismatches() {
        use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
        use congest_sim::network::Network;
        use congest_sim::scenario::{
            doctest_payload, CompileArtifacts, Compiler, CompilerKind, CompilerNotes, FaultFree,
            Uncompiled,
        };
        use congest_sim::traffic::Output;
        use netgraph::generators;

        // A dummy "secure" compiler that just runs uncompiled, to exercise
        // role-based skipping without the core adapters.
        #[derive(Clone)]
        struct SecureShim;
        impl Compiler for SecureShim {
            fn name(&self) -> String {
                "secure-shim".into()
            }
            fn kind(&self) -> CompilerKind {
                CompilerKind::Secure
            }
            fn execute(
                &self,
                artifacts: &CompileArtifacts,
                make: &dyn Fn() -> BoxedAlgorithm,
                net: &mut Network,
            ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
                Uncompiled.execute(artifacts, make, net)
            }
        }
        let mobile = |name: &str, role| {
            AdversarySpec::new(name, role, CorruptionBudget::Mobile { f: 1 }, |seed| {
                Box::new(RandomMobile::new(1, seed))
            })
        };
        let report = Campaign::new(42)
            .graphs(vec![
                GraphSpec::new("cycle6", generators::cycle(6)),
                GraphSpec::new("K5", generators::complete(5)),
            ])
            .adversaries(vec![
                mobile("random-mobile", AdversaryRole::Byzantine),
                mobile("eavesdropper", AdversaryRole::Eavesdropper),
            ])
            .compilers(vec![
                CompilerSpec::of(FaultFree),
                CompilerSpec::of(SecureShim),
            ])
            .payload(|g| Box::new(doctest_payload(g.clone())) as BoxedAlgorithm)
            .threads(1)
            .run();
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        // The secure shim is skipped under the byzantine adversary on every graph.
        assert_eq!(report.skipped_count(), 2);
        assert!(report
            .cells
            .iter()
            .filter(|c| c.skipped())
            .all(|c| matches!(c.outcome, Err(ScenarioError::RoleMismatch { .. }))));
        assert!(report.all_protected_cells_agree());
        assert!(report.to_table().contains("skipped"));
    }
}
