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
//! * [`most_frequent`] — the vote rule of Theorem 4.1's rewind compiler.  The
//!   cycle-cover compiler of Theorem 1.4 runs its own floods, whose plurality
//!   vote follows `most_frequent`'s order and is tested against it.
//!
//! Substitution note: no transport executes Theorem 3.2 — no tree code or
//! other interactive coding runs; the guarantee is a corruption-counting
//! oracle.  See "Deviations from the paper" in `docs/ARCHITECTURE.md`.

pub mod scheduler;

pub use scheduler::{FamilyRunReport, RsScheduler, SchedulePlan, TreeRunReport, C_RS, T_RS};

use std::collections::HashMap;

/// The most frequent of `values` (`None` if there are none), ties resolved
/// to the smallest value in `T`'s order.  The winner is the maximum of a
/// total order on `(count, value)`, so it does not depend on the order the
/// values arrive in or on the map's iteration order — callers can rely on it
/// for run-to-run determinism.
pub fn most_frequent<T: Ord + std::hash::Hash>(values: impl IntoIterator<Item = T>) -> Option<T> {
    let mut counts: HashMap<T, usize> = HashMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tie rule the rewind compiler's per-arc vote relies on: highest
    /// count first, then the lexicographically smallest value, an absent
    /// message ordering below every present one — whatever order the copies
    /// arrive in.
    #[test]
    fn most_frequent_breaks_ties_to_the_smallest_value_with_absent_first() {
        let (a, b, c): (&[u64], &[u64], &[u64]) = (&[7, 1], &[7, 2], &[9]);
        for copies in [[Some(a), Some(b), Some(c)], [Some(c), Some(b), Some(a)]] {
            assert_eq!(most_frequent(copies), Some(Some(a)));
        }
        for copies in [[Some(c), None, Some(a)], [None, Some(a), Some(c)]] {
            assert_eq!(most_frequent(copies), Some(None));
        }
        // A strict majority beats the tie rule.
        assert_eq!(most_frequent([None, Some(c), Some(c)]), Some(Some(c)));
        assert_eq!(most_frequent([Some(a), None, None]), Some(None));
        assert_eq!(most_frequent(Vec::<Option<&[u64]>>::new()), None);
    }
}
