//! Round-synchronous CONGEST / CONGESTED CLIQUE simulator with mobile edge adversaries.
//!
//! This crate is the execution substrate of the Fischer–Parter reproduction:
//!
//! * [`traffic::Traffic`] — the messages of one round, one payload per directed arc;
//! * [`network::Network`] — executes rounds, letting an adversary (eavesdropper
//!   or byzantine, with a static / mobile / round-error-rate budget) interpose
//!   on every round's traffic, while accounting rounds, congestion and
//!   corruption;
//! * [`adversary`] — adversary strategies (random mobile, sweeping, greedy
//!   heaviest, bursty, scheduled) and budgets;
//! * [`algorithm::CongestAlgorithm`] — the round-by-round interface that the
//!   compilers in `mobile-congest-core` wrap.
//!
//! # Example
//!
//! ```
//! use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
//! use congest_sim::network::Network;
//! use congest_sim::traffic::Traffic;
//! use netgraph::generators;
//!
//! let g = generators::cycle(6);
//! let mut net = Network::new(
//!     g.clone(),
//!     AdversaryRole::Byzantine,
//!     Box::new(RandomMobile::new(1, 7)),
//!     CorruptionBudget::Mobile { f: 1 },
//!     7,
//! );
//! let mut t = Traffic::new(&g);
//! t.send(&g, 0, 1, vec![42]);
//! let delivered = net.exchange(t);
//! // At most one edge was corrupted this round.
//! assert!(net.corruption_history()[0].len() <= 1);
//! # let _ = delivered;
//! ```
//!
//! # Performance model
//!
//! The round engine is **zero-allocation at steady state**: [`Traffic`] is a
//! flat word arena recycled via [`Traffic::begin_round`], adversaries mark
//! edges into a reusable [`adversary::EdgeSet`] bitset, corruption rewrites
//! payloads in place through a recycled scratch buffer, and the corruption
//! history appends to a flattened [`network::CorruptionHistory`].  The
//! PR-2-era engine survives only as the test-only oracle of this crate's
//! round-by-round parity tests.

#![warn(missing_docs)]

pub mod adversary;
pub mod algorithm;
pub mod metrics;
pub mod network;
#[cfg(test)]
mod reference;
pub mod scenario;
pub mod traffic;

pub use adversary::{
    AdversaryRole, AdversaryStrategy, CorruptionBudget, CorruptionMode, EdgeSet, PatternId,
    RoundView,
};
pub use algorithm::{run_fault_free, run_on_network, CongestAlgorithm};
pub use metrics::Metrics;
pub use network::{CorruptionHistory, Network, PatternRounds, RoundPatterns, ViewEntry, ViewLog};
pub use scenario::{Compiler, CompilerKind, RunReport, Scenario, ScenarioError};
pub use traffic::{Output, Payload, Traffic};
