//! Campaigns: batched grids of graph × adversary × compiler × seed-repetition
//! cells, executed deterministically in parallel and aggregated into
//! campaign-level summaries with a JSONL export.
//!
//! A finished [`CampaignCell`] reaches every output through its flat
//! [`CellRecord`]: [`cell_json`] is the record's `kind:"cell"` line and
//! [`CampaignReport::summaries`] aggregates the records with
//! [`summaries_of`], so the live report writes the same bytes a store of
//! records would.

use crate::artifact_cache::ArtifactCache;
use crate::engine;
use crate::json;
use crate::report::{summaries_of, CellRecord};
use crate::spec::{compiler_to_json, graph_to_json, CampaignSpec, SpecError};
use crate::stats::StatSummary;
use congest_sim::scenario::matrix::run_cell;
use congest_sim::scenario::{RunReport, ScenarioError};
use netgraph::{Graph, GraphDef};
use std::sync::Arc;

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

/// A resolved [`CampaignSpec`]: every graph × adversary × compiler cell of
/// the spec's grid runs `repetitions` times with per-repetition seeds, fanned
/// across worker threads by the deterministic engine.
///
/// [`Campaign::from_spec`] is the only constructor, so the grid a campaign
/// runs and the artifact-cache keys it computed from the same defs can never
/// drift apart.  See the crate docs for a runnable end-to-end example.
pub struct Campaign {
    /// The spec this campaign resolves: seed, repetitions and the def axes.
    spec: CampaignSpec,
    /// Every graph of the grid, built once from its def.
    graphs: Vec<Graph>,
    /// Canonical cache keys per `(graph, compiler)` pair, `gi * n_c + ci`
    /// order.
    pair_keys: Vec<String>,
    threads: usize,
    shard: Option<(usize, usize)>,
    trace: obs::TraceSpec,
    /// The shared compile-artifact cache, unless disabled.
    cache: Option<Arc<ArtifactCache>>,
}

impl Campaign {
    /// Resolve a campaign from its serializable data form: every
    /// [`GraphDef`] is built through `netgraph::generators` (once, for the
    /// whole campaign), every
    /// [`AdversaryDef`](congest_sim::scenario::matrix::AdversaryDef) is
    /// resolved per cell, every
    /// [`CompilerDef`](mobile_congest_core::adapters::CompilerDef) runs as
    /// the cell's compiler itself, and the payload is built through
    /// [`PayloadDef`](crate::spec::PayloadDef).  The payload is validated
    /// against every graph here, so a spec that would panic inside a worker
    /// is a typed [`SpecError`] before anything runs.
    ///
    /// The campaign gets a fresh [`ArtifactCache`]; share one with
    /// [`Campaign::artifact_cache`] or disable it with
    /// [`Campaign::without_artifact_cache`].
    pub fn from_spec(spec: &CampaignSpec) -> Result<Campaign, SpecError> {
        spec.validate()?;
        let grid = &spec.grid;
        let graphs = grid
            .graphs
            .iter()
            .map(GraphDef::build)
            .collect::<Result<Vec<_>, _>>()?;
        for (def, graph) in grid.graphs.iter().zip(&graphs) {
            grid.payload.validate(&def.display_name(), graph)?;
        }
        // Cache keys are the canonical def JSON of each pair — collision
        // free, so a hit can never hand a cell another pair's verdict.
        let compiler_jsons: Vec<String> = grid.compilers.iter().map(compiler_to_json).collect();
        let pair_keys = grid
            .graphs
            .iter()
            .flat_map(|def| {
                let graph_json = graph_to_json(def);
                compiler_jsons
                    .iter()
                    .map(move |compiler_json| ArtifactCache::pair_key(&graph_json, compiler_json))
            })
            .collect();
        Ok(Campaign {
            spec: spec.clone(),
            graphs,
            pair_keys,
            threads: 0,
            shard: None,
            trace: obs::TraceSpec::off(),
            cache: Some(Arc::new(ArtifactCache::new())),
        })
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
    /// every batch and job of a daemon reuses one cache.  Traced runs always
    /// bypass it so every cell's event stream still carries its packing
    /// spans.
    pub fn artifact_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Disable the compile-artifact cache: every cell calls `prepare`
    /// itself.  Reports are byte-identical either way; this exists for
    /// measurement (the bench package's cache probes) and as the CLI
    /// `--no-cache` escape hatch.
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
        self.spec.cell_count()
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

    /// `indices` as the chunks a runner executes and makes durable one at a
    /// time: [`engine::chunks`] at this campaign's thread count.
    pub fn chunks<'a>(&self, indices: &'a [usize]) -> std::slice::Chunks<'a, usize> {
        engine::chunks(indices, engine::resolve_threads(self.threads))
    }

    /// Execute every cell of the campaign across the worker pool and collect
    /// the report.
    ///
    /// Cells are enumerated graph-major, then adversary, then compiler, with
    /// repetitions innermost; each cell's RNG seed is [`cell_seed`]`(campaign
    /// seed, cell index)` and the whole cell is built and run inside the
    /// worker via [`matrix::run_cell`](congest_sim::scenario::matrix::run_cell),
    /// so the report is byte-identical at any thread count.
    pub fn run(&self) -> CampaignReport {
        self.run_cells(&self.cell_indices())
    }

    /// Execute exactly the given **global** cell indices (out-of-range ones
    /// are ignored) — the entry point [`Campaign::run`], sharded runs and
    /// cell-level resume share.  Each cell's seed depends only on its global
    /// index, so any subset reproduces the same cells the full run would.
    pub fn run_cells(&self, indices: &[usize]) -> CampaignReport {
        let grid = &self.spec.grid;
        let reps = self.spec.repetitions;
        let (n_a, n_c) = (grid.adversaries.len(), grid.compilers.len());
        let indices: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| i < self.cell_count())
            .collect();
        let threads = engine::resolve_threads(self.threads);
        // Tracing bypasses the cache: `prepare` emits packing spans into the
        // cell's event stream, and a cache hit would elide them from every
        // cell but the first, changing traced fingerprints.
        let cache = self.cache.as_ref().filter(|_| !self.trace.enabled);

        let cells = engine::run_indexed(threads, indices.len(), |slot| {
            let index = indices[slot];
            // Invert the enumeration order: repetition innermost.
            let rep = index % reps;
            let ci = (index / reps) % n_c;
            let ai = (index / (reps * n_c)) % n_a;
            let gi = index / (reps * n_c * n_a);
            let (graph, adversary) = (&self.graphs[gi], &grid.adversaries[ai]);
            let compiler = grid.compilers[ci].build();
            let seed = cell_seed(self.spec.seed, index);
            // The pair's verdict, rejection included, goes to the cell as is.
            let verdict = cache
                .map(|cache| cache.prepare_with(&self.pair_keys[gi * n_c + ci], &*compiler, graph));
            let payload = grid.payload.clone();
            CampaignCell {
                index,
                graph: grid.graphs[gi].display_name(),
                adversary: adversary.display_name(),
                compiler: compiler.name(),
                repetition: rep,
                seed,
                outcome: run_cell(
                    graph,
                    adversary,
                    compiler,
                    move |g: &Graph| payload.build(g),
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
    /// (mean/stddev plus the order statistics), in enumeration order: the
    /// cells flattened to [`CellRecord`]s and handed to
    /// [`CampaignReport::summaries_with`].
    pub fn summaries(&self) -> Vec<GroupSummary> {
        let records: Vec<CellRecord> = self.cells.iter().map(CellRecord::of).collect();
        self.summaries_with(&records)
    }

    /// [`CampaignReport::summaries`] over this report's cells already
    /// flattened — `records` is [`CellRecord::of`] of every cell, in order —
    /// for callers that also write the records.  The aggregation is
    /// [`summaries_of`], so a summary recomputed from stored records is
    /// byte-identical to this one; on top, the per-group wall-clock
    /// [`GroupSummary::profile`] of traced runs is laid over the same groups.
    /// Wall times are measurement, not data, and never enter the record form.
    pub fn summaries_with(&self, records: &[CellRecord]) -> Vec<GroupSummary> {
        let mut summaries = summaries_of(records);
        let mut profiles = GroupProfiles::default();
        profiles.add(&self.cells);
        profiles.lay_over(&mut summaries);
        summaries
    }

    /// The JSONL export for the bench trajectory: one `kind:"cell"` line per
    /// cell (status, run metrics, typed notes) followed by one
    /// `kind:"summary"` line per grid cell (the mean/min/max/p50/p99
    /// aggregates).  Deterministic byte-for-byte at any thread count.
    pub fn to_jsonl(&self) -> String {
        let records: Vec<CellRecord> = self.cells.iter().map(CellRecord::of).collect();
        let mut out = String::new();
        for record in &records {
            out.push_str(&record.cell_line());
            out.push('\n');
        }
        for summary in self.summaries_with(&records) {
            out.push_str(&summary_json(&summary));
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

    /// A formatted per-group summary table: [`summary_table`] of
    /// [`CampaignReport::summaries`].
    pub fn to_table(&self) -> String {
        summary_table(&self.summaries())
    }
}

/// The traced wall-clock profile of each grid cell, merged over its
/// executed repetitions as chunks of cells arrive — the
/// [`GroupSummary::profile`] of a run whose cells are not all in one
/// report.  Groups follow [`summaries_of`]'s key (`index - repetition`,
/// contiguous runs), so the profiles of the cells added, in order, line up
/// with the summaries of their records.
#[derive(Default)]
pub struct GroupProfiles(Vec<(usize, obs::PhaseProfile)>);

impl GroupProfiles {
    /// Merge the profiles of `cells`, the next cells of the run in index
    /// order, into their groups.
    pub fn add(&mut self, cells: &[CampaignCell]) {
        for cell in cells {
            let key = cell.index - cell.repetition;
            if self.0.last().map(|(k, _)| *k) != Some(key) {
                self.0.push((key, obs::PhaseProfile::default()));
            }
            if let Ok(report) = &cell.outcome {
                let (_, profile) = self.0.last_mut().expect("a group was just opened");
                profile.merge(&report.trace.profile);
            }
        }
    }

    /// Lay the profiles over `summaries`, the [`summaries_of`] of the same
    /// cells' records, group by group.
    pub fn lay_over(&self, summaries: &mut [GroupSummary]) {
        for (summary, (_, profile)) in summaries.iter_mut().zip(&self.0) {
            summary.profile = profile
                .rows()
                .into_iter()
                .map(|(name, spans, nanos)| (name.to_string(), spans, nanos as f64 / 1.0e6))
                .collect();
        }
    }
}

/// A formatted per-group table of `summaries`.
pub fn summary_table(summaries: &[GroupSummary]) -> String {
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

/// One `kind:"cell"` JSONL line: the cell's [`CellRecord::cell_line`].  A
/// cell's line depends only on the cell, never on which run produced it.
pub fn cell_json(cell: &CampaignCell) -> String {
    CellRecord::of(cell).cell_line()
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
    use crate::spec::{GridSpec, PayloadDef};
    use congest_sim::scenario::matrix::AdversaryDef;
    use mobile_congest_core::adapters::CompilerDef;

    /// A campaign of `reps` repetitions running the id-exchange payload.
    fn spec(
        seed: u64,
        reps: usize,
        graphs: Vec<GraphDef>,
        adversaries: Vec<AdversaryDef>,
        compilers: Vec<CompilerDef>,
    ) -> CampaignSpec {
        CampaignSpec {
            seed,
            repetitions: reps,
            grid: GridSpec {
                graphs,
                adversaries,
                compilers,
                payload: PayloadDef::ExchangeIds,
            },
        }
    }

    #[test]
    fn cell_seed_is_a_pure_function_of_campaign_seed_and_index() {
        assert_eq!(cell_seed(7, 3), cell_seed(7, 3));
        assert_ne!(cell_seed(7, 3), cell_seed(7, 4));
        assert_ne!(cell_seed(7, 3), cell_seed(8, 3));
    }

    #[test]
    fn shard_indices_partition_the_cell_space() {
        let spec = spec(
            1,
            3,
            vec![GraphDef::complete(4), GraphDef::complete(5)],
            vec![AdversaryDef::RandomMobile { f: 1 }],
            vec![CompilerDef::Uncompiled],
        );
        let make = || Campaign::from_spec(&spec).unwrap();
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
        // Two compiler entries rendering to the identical display name
        // ("uncompiled"): grouping must follow the grid structure, not the
        // names.
        let spec = spec(
            5,
            2,
            vec![GraphDef::complete(5)],
            vec![AdversaryDef::RandomMobile { f: 1 }],
            vec![CompilerDef::Uncompiled, CompilerDef::Uncompiled],
        );
        let report = Campaign::from_spec(&spec).unwrap().threads(1).run();

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
        let spec = spec(
            42,
            1,
            vec![
                GraphDef::new(netgraph::GraphFamily::Cycle, 6),
                GraphDef::complete(5),
            ],
            vec![
                AdversaryDef::RandomMobile { f: 1 },
                AdversaryDef::Eavesdropper { f: 1 },
            ],
            vec![
                CompilerDef::FaultFree,
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
            ],
        );
        let report = Campaign::from_spec(&spec).unwrap().threads(1).run();
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        // The secrecy compiler is skipped under the byzantine adversary on
        // every graph.
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
