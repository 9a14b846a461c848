//! Interactive-coding tools: the Rajagopalan–Schulman compiler guarantee and
//! the parallel tree-protocol scheduler of Lemma 3.3.
//!
//! The byzantine compilers of Fischer–Parter use interactive coding purely as a
//! black box (Theorem 3.2): an RS-compiled protocol over a subgraph ends
//! correctly as long as the adversary corrupts less than a `1/(c_RS·m)`
//! fraction of its communication.  This crate provides:
//!
//! * [`scheduler::RsScheduler`] — runs one RS-compiled protocol per tree of a
//!   packing, in parallel on the simulator, enforcing exactly the black-box
//!   guarantee (per-instance corruption accounting against real adversary
//!   choices) and reporting which instances ended correctly — Lemma 3.3;
//! * [`replay`] — a concrete, executable resilient transport (repetition +
//!   majority along trees and path systems), a non-oracle demonstration of
//!   the same pipeline, and the voting rules [`majority`] / [`most_frequent`].
//!   Outside this crate only those two rules are used: the rewind compiler
//!   votes with `most_frequent`, and the cycle-cover compiler of Theorem 1.4
//!   runs its own floods, whose plurality vote follows `most_frequent`'s
//!   order and is tested against `majority`.  The transport functions have
//!   no caller; whether they stay is open (the Theorem 3.2 row of
//!   "Deviations from the paper" in `docs/ARCHITECTURE.md`).
//!
//! Substitution note: no tree code is executed — the Theorem 3.2 guarantee is
//! a corruption-counting oracle.  See "Deviations from the paper" in
//! `docs/ARCHITECTURE.md`.

pub mod replay;
pub mod scheduler;

pub use replay::{
    flood_paths_majority, majority, most_frequent, repeated_tree_broadcast, repeated_tree_sum,
};
pub use scheduler::{FamilyRunReport, RsScheduler, SchedulePlan, TreeRunReport, C_RS, T_RS};
