//! `mobile-congest-harness` — the deterministic parallel experiment engine
//! (re-exported as `mobile_congest::harness`).
//!
//! A [`Campaign`] is a resolved [`CampaignSpec`]: a batched grid of graph ×
//! adversary × compiler × seed-repetition cells described as plain data —
//! `GraphDef` × `AdversaryDef` × `CompilerDef` axes plus a [`PayloadDef`]
//! (the [`spec`] module), encoded and parsed through [`json`], the
//! workspace's one JSON codec.  [`Campaign::from_spec`] is the only
//! constructor: it builds every graph once, validates the payload against
//! each, and keys the [`ArtifactCache`] by the same defs the cells run.
//!
//! The engine fans the cells across a self-scheduling worker pool built on
//! `std::thread` + channels ([`engine::run_indexed`]), derives every cell's
//! RNG seed from `(campaign_seed, cell_index)` ([`cell_seed`]), and collects
//! the results in enumeration order — so a campaign's report is
//! **byte-identical at any thread count** (covered by a regression test that
//! compares 1-, 2- and 8-worker fingerprints).
//!
//! Each cell runs through the `Scenario` pipeline by way of the one per-cell
//! entry point, [`run_cell`](congest_sim::scenario::matrix::run_cell) — this
//! is the only grid engine, `.threads(1)` included — so typed skips (a role
//! mismatch, or the `(graph, compiler)` verdict of `Compiler::prepare`),
//! [`RunReport`]s and the per-compiler [`CompilerNotes`] diagnostics all
//! flow through unchanged.  On top, the
//! report aggregates every numeric facet — run metrics plus the typed notes
//! (rewinds, correction verdicts, key rounds, packing quality) — into
//! mean/min/max/p50/p99 summaries per grid cell, and exports the whole
//! trajectory as JSONL for the bench harness.
//!
//! A small two-worker campaign on a clique:
//!
//! ```
//! use congest_sim::scenario::matrix::AdversaryDef;
//! use mobile_congest_core::adapters::CompilerDef;
//! use mobile_congest_harness::{Campaign, CampaignSpec, GridSpec, PayloadDef};
//! use netgraph::GraphDef;
//!
//! let spec = CampaignSpec {
//!     seed: 7,
//!     repetitions: 2,
//!     grid: GridSpec {
//!         graphs: vec![GraphDef::complete(6)],
//!         adversaries: vec![AdversaryDef::RandomMobile { f: 1 }],
//!         compilers: vec![CompilerDef::Uncompiled],
//!         payload: PayloadDef::ExchangeIds,
//!     },
//! };
//! let report = Campaign::from_spec(&spec).unwrap().threads(2).run();
//!
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.cells.iter().all(|cell| cell.outcome.is_ok()));
//! let summaries = report.summaries();
//! assert_eq!(summaries.len(), 1);
//! assert_eq!(summaries[0].stat("network_rounds").unwrap().count, 2);
//! assert!(report.to_jsonl().lines().count() >= 3); // 2 cells + 1 summary
//! ```
//!
//! [`Campaign::shard`] partitions the cell index space for multi-machine
//! runs, and the `campaign` CLI binary of the umbrella crate drives spec
//! files with cell-level resume.
//!
//! [`RunReport`]: congest_sim::scenario::RunReport
//! [`CompilerNotes`]: congest_sim::scenario::CompilerNotes

#![warn(missing_docs)]

pub mod artifact_cache;
pub mod campaign;
pub mod engine;
pub mod json;
pub mod report;
pub mod spec;
pub mod stats;

pub use artifact_cache::ArtifactCache;
pub use campaign::{cell_seed, Campaign, CampaignCell, CampaignReport, GroupSummary};
pub use engine::{default_threads, run_indexed};
pub use report::{CellRecord, RecordOutcome, ReportRecord};
pub use spec::{CampaignSpec, GridSpec, PayloadDef, SpecError};
pub use stats::StatSummary;
