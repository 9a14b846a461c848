//! `mobile-congest-core` — the compilers of *Distributed CONGEST Algorithms
//! against Mobile Adversaries* (Fischer & Parter, PODC 2023).
//!
//! The crate turns arbitrary round-by-round CONGEST algorithms
//! ([`congest_sim::CongestAlgorithm`]) into algorithms that stay **secure**
//! against mobile eavesdroppers or **correct** against mobile byzantine edge
//! adversaries, running on the `congest-sim` network simulator:
//!
//! | Module | Paper result |
//! |---|---|
//! | [`secure::keys`] | Lemma A.1 — pad pools from Vandermonde bit extraction |
//! | [`secure::static_to_mobile`] | Theorem 1.2 — static-secure → mobile-secure simulation |
//! | [`secure::unicast`] | Lemma A.3 — mobile-secure unicast / multicast |
//! | [`secure::broadcast`] | Theorem A.4 + Theorem 1.3 — secure broadcast and the congestion-sensitive compiler |
//! | [`resilient::safe_broadcast`] | Lemma 3.6 — `ECCSafeBroadcast` |
//! | [`resilient::correction`] | Section 3.2.2 / Lemma 4.2 — sketch-based message correction |
//! | [`resilient::tree_compiler`] | Theorems 3.5 & 1.6 — tree-packing compiler, CONGESTED CLIQUE compiler |
//! | [`resilient::expander`] | Theorem 1.7 / Lemma 3.10 — expander compiler with packing built under attack |
//! | [`resilient::cycle_cover`] | Theorems 1.4 / 5.5 — FT-cycle-cover compiler |
//! | [`rate::rewind`] | Theorem 4.1 — round-error-rate rewind compiler |
//!
//! # Quick example
//!
//! ```
//! use congest_algorithms::FloodBroadcast;
//! use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
//! use congest_sim::network::Network;
//! use congest_sim::run_fault_free;
//! use mobile_congest_core::resilient::CliqueCompiler;
//! use netgraph::generators;
//!
//! let g = generators::complete(12);
//! let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 7));
//! let f = 1;
//! let mut net = Network::new(
//!     g.clone(),
//!     AdversaryRole::Byzantine,
//!     Box::new(RandomMobile::new(f, 42)),
//!     CorruptionBudget::Mobile { f },
//!     42,
//! );
//! let compiler = CliqueCompiler::new(&g, f, 1);
//! let (out, report) = compiler
//!     .run(&mut FloodBroadcast::new(g.clone(), 0, 7), &mut net)
//!     .expect("every word fits a sketch element");
//! assert_eq!(out, expected);
//! assert!(report.fully_corrected);
//! ```

pub mod adapters;
pub mod rate;
pub mod resilient;
pub mod secure;

pub use adapters::CompilerDef;
