//! `mobile-congest` — umbrella crate for the reproduction of *Distributed
//! CONGEST Algorithms against Mobile Adversaries* (Fischer & Parter, PODC 2023).
//!
//! **Start at [`scenario`]** — the unified execution API.  One fluent, typed
//! pipeline runs any payload on any graph under any adversary through any of
//! the paper's compilers and returns a structured report:
//!
//! ```
//! use mobile_congest::payloads::FloodBroadcast;
//! use mobile_congest::scenario::{CompilerDef, Scenario};
//! use mobile_congest::sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
//! use mobile_congest::graphs::generators;
//!
//! let g = generators::complete(12);
//! let payload_graph = g.clone();
//! let report = Scenario::on(g)
//!     .payload(move || FloodBroadcast::new(payload_graph.clone(), 0, 0xC0FFEE))
//!     .adversary(
//!         AdversaryRole::Byzantine,
//!         RandomMobile::new(2, 7),
//!         CorruptionBudget::Mobile { f: 2 },
//!     )
//!     .seed(7)
//!     .compiled_with(CompilerDef::Clique { f: 2, seed: 1 })
//!     .run()
//!     .unwrap();
//! assert_eq!(report.agrees_with_fault_free(), Some(true));
//! ```
//!
//! The workspace members behind the scenes:
//!
//! * [`sim`] — the round-synchronous CONGEST simulator and adversaries
//!   (a zero-allocation round engine: flat traffic arenas, adversary
//!   bitsets, in-place corruption — see `docs/ARCHITECTURE.md`),
//! * [`graphs`] — graph generators (incl. the torus / small-world /
//!   expander / ring-of-cliques zoo), CSR-indexed graphs, tree packings,
//!   cycle covers,
//! * [`codes`] — finite fields, Reed–Solomon, Vandermonde extraction, hashing,
//! * [`sketch`] — ℓ0-sampling and sparse-recovery sketches,
//! * [`icoding`] — the RS-compiler oracle and the Lemma 3.3 scheduler,
//! * [`payloads`] — fault-free payload algorithms,
//! * [`compilers`] — the paper's mobile-secure and mobile-resilient compilers
//!   (each named for the pipeline by a [`scenario::CompilerDef`] variant),
//! * [`scenario::AsyncExecutor`] — the deterministic asynchronous execution
//!   runtime: per-node concurrent processes under a virtual-time
//!   discrete-event scheduler, with delivery behaviour
//!   ([`scenario::ScheduleDef`]: latency, reorder, drops, partitions,
//!   crash-recovery) as data, byte-replayable at any host thread count and
//!   pinned byte-for-byte against the lockstep engine on synchronous
//!   schedules,
//! * [`harness`] — the deterministic parallel campaign engine: grids of
//!   graph × adversary × compiler × seed-repetition cells fanned across
//!   worker threads with byte-identical results at any thread count, typed
//!   [`scenario::CompilerNotes`] aggregation (mean/stddev and the
//!   min/p10/p50/p90/p99/max order statistics), a JSONL export — and the
//!   **scenario-as-data** layer: serializable
//!   [`CampaignSpec`](harness::CampaignSpec)s resolved through the
//!   graph/adversary/compiler registries (`Campaign::from_spec`), sharding,
//!   and the `campaign` CLI binary (`cargo run --bin campaign`) with
//!   cell-level resume,
//! * [`campaignd`] — the campaign *server*: durable jobs in an fsync'd
//!   store, one runner thread driving the same deterministic engine
//!   (byte-identical reports, zero re-execution after a crash), a std-only
//!   HTTP/1.1 API and the `campaignd` / `campaignctl` binaries,
//! * [`redteam`] — adversary synthesis: deterministic red-team search over
//!   synthesized per-round corruption schedules
//!   (greedy / (1+1)-evolutionary chains scored on a damage lattice), a
//!   shrinker that minimizes every found failure (rounds → edges → graph)
//!   into a replayable one-cell campaign spec, and the `redteam` CLI binary
//!   (`cargo run --bin redteam`) with sharding and unit-level resume.
//!
//! See `README.md` for a guided tour; the "Paper → module map" of
//! `docs/ARCHITECTURE.md` names, per theorem, the test that asserts it.

/// Compiles every `rust` code block of `README.md` as a doctest, so the
/// README's quickstart and harness snippets cannot drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub mod cli;

pub use campaignd;
pub use coding as codes;
pub use congest_algorithms as payloads;
pub use congest_sim as sim;
pub use interactive_coding as icoding;
pub use mobile_congest_core as compilers;
pub use mobile_congest_harness as harness;
pub use mobile_congest_redteam as redteam;
pub use netgraph as graphs;
pub use obs;
pub use sketches as sketch;

/// The unified execution API: `Scenario` builder, `Compiler` trait, typed
/// errors, run reports, and the grid vocabulary — `CompilerDef` among it, the
/// one value that names and runs each of the paper's seven compilers.
///
/// The pipeline pieces live in [`congest_sim::scenario`]; `CompilerDef` lives
/// in [`mobile_congest_core::adapters`].  This module is the single import
/// surface for both.
pub mod scenario {
    pub use async_exec::{
        AsyncExecutor, CrashWindow, DropModel, LatencyModel, PartitionWindow, ScheduleDef,
    };
    pub use congest_sim::scenario::{
        doctest_payload, matrix, validate_role, BoxedAlgorithm, BuiltScenario, CompileArtifacts,
        Compiler, CompilerKind, CompilerNotes, FaultFree, PayloadFactory, RunReport, Scenario,
        ScenarioBuilder, ScenarioError, Uncompiled, Verdict,
    };
    pub use mobile_congest_core::adapters::CompilerDef;
}
