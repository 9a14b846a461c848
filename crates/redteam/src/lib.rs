//! Red-team adversary synthesis: search for corruption schedules that break a
//! compiler, then shrink the break to a minimal replayable counterexample.
//!
//! The Fischer–Parter compilers come with worst-case guarantees, but the
//! implementations in this workspace have concrete, finite weaknesses (the v1
//! greedy tree packing shares edges between trees, so a single well-placed
//! mobile edge can out-vote the majority argument).  This crate turns finding
//! such weaknesses into a reproducible pipeline:
//!
//! 1. **Search** ([`search`]): deterministic greedy / (1+1)-evolutionary
//!    chains over [`SynthesizedAdversary`] candidates — concrete per-round
//!    edge-corruption schedules within an `f`-edges-per-round budget — scored
//!    by the [`Fitness`] lattice (failed decode ≻ residual mismatches ≻
//!    rewinds ≻ attack pressure ≻ congestion) via the same
//!    `matrix::run_cell` entry point campaigns use.
//! 2. **Shrink** ([`mod@shrink`]): once a chain finds a failure, minimize it —
//!    fewer rounds, fewer edges per round, then a smaller graph via
//!    [`netgraph::GraphDef::shrink_candidates`] — re-executing every
//!    candidate and keeping the failure class invariant.
//! 3. **Replay** ([`spec::counterexample_spec`]): the minimal attack is pure
//!    data (`AdversaryDef::Synthesized`), so it exports as a one-cell
//!    `CampaignSpec` that reproduces the failure bit-for-bit through the
//!    standard campaign pipeline.
//!
//! Everything is deterministic: chain `c` step `s` draws its randomness from
//! `cell_seed(cell_seed(search_seed, c), s)`, candidate evaluation is a pure
//! function of specs and seed, and the [`run::RedTeam`] engine fans chains
//! across worker threads with slot-ordered collection — so a campaign's
//! trajectory is byte-identical at any thread count, and shards accumulate
//! byte-identically to a one-shot run.

#![warn(missing_docs)]

pub mod fitness;
pub mod replay;
pub mod run;
pub mod schedule;
pub mod search;
pub mod shrink;
pub mod spec;

pub use fitness::{Fitness, ResolvedTarget};
pub use replay::replay_trace_jsonl;
pub use run::{header_line, unit_line, Counterexample, RedTeam, UnitOutcome};
pub use schedule::{ScheduleMove, SynthesizedAdversary};
pub use search::{run_chain, ChainReport, SearchStrategy};
pub use shrink::{shrink, ShrinkOutcome};
pub use spec::{counterexample_spec, BudgetSpec, RedTeamSpec, SearchSpec, TargetSpec};
