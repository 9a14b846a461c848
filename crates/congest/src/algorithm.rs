//! The round-by-round algorithm interface consumed by the compilers.
//!
//! Fischer–Parter compilers take *any* CONGEST algorithm `A` and simulate it
//! round by round, transporting each round's messages resiliently (or
//! securely).  The [`CongestAlgorithm`] trait exposes exactly the hooks such a
//! simulation needs:
//!
//! * [`CongestAlgorithm::send_into`] — the messages every node sends in round
//!   `i` (a function of what its nodes received in rounds `< i`),
//! * [`CongestAlgorithm::receive`] — delivery of the (possibly corrected)
//!   round-`i` messages,
//! * [`CongestAlgorithm::outputs`] — per-node outputs when the algorithm ends.
//!
//! Implementations keep per-node state internally; the contract (enforced by
//! the honest implementations in `congest-algorithms`, and relied on by the
//! compilers' correctness arguments) is that a node's outgoing messages depend
//! only on *its own* prior inbox and randomness.

use crate::network::Network;
use crate::traffic::{Output, Traffic};

/// A CONGEST algorithm expressed round by round.
///
/// The drivers reuse one [`Traffic`] buffer across all rounds, so the
/// steady-state round loop is allocation-free.
pub trait CongestAlgorithm {
    /// A short human-readable name used in experiment reports.
    fn name(&self) -> String;

    /// The total number of rounds the algorithm runs.
    fn rounds(&self) -> usize;

    /// Write the outgoing messages for round `round` (0-based) into `out`.
    ///
    /// Implementations must start with [`Traffic::begin_round`] (which clears
    /// the buffer and sizes it for the graph) — `out` arrives with the
    /// previous round's contents.
    fn send_into(&mut self, round: usize, out: &mut Traffic);

    /// Deliver the messages received in round `round`.
    fn receive(&mut self, round: usize, inbox: &Traffic);

    /// Per-node outputs once all rounds have been delivered.
    fn outputs(&self) -> Vec<Output>;

    /// The worst-case number of messages the algorithm sends over a single
    /// edge across its whole execution, if known.  The congestion-sensitive
    /// compiler (Theorem 1.3) keys its parameters off this value.
    fn congestion_bound(&self) -> Option<usize> {
        None
    }
}

impl<T: CongestAlgorithm + ?Sized> CongestAlgorithm for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn rounds(&self) -> usize {
        (**self).rounds()
    }
    fn send_into(&mut self, round: usize, out: &mut Traffic) {
        (**self).send_into(round, out)
    }
    fn receive(&mut self, round: usize, inbox: &Traffic) {
        (**self).receive(round, inbox)
    }
    fn outputs(&self) -> Vec<Output> {
        (**self).outputs()
    }
    fn congestion_bound(&self) -> Option<usize> {
        (**self).congestion_bound()
    }
}

/// Run an algorithm in the fault-free setting (no network, no adversary):
/// every round's messages are delivered verbatim.  Returns the outputs.
///
/// One [`Traffic`] buffer is reused across all rounds.
pub fn run_fault_free<A: CongestAlgorithm + ?Sized>(alg: &mut A) -> Vec<Output> {
    let mut buf = Traffic::default();
    for round in 0..alg.rounds() {
        alg.send_into(round, &mut buf);
        alg.receive(round, &buf);
    }
    alg.outputs()
}

/// Run an algorithm *uncompiled* on a network: each of its rounds is one
/// network round, so a byzantine adversary corrupts whatever it likes.  This is
/// the baseline the compilers are compared against.
///
/// The round loop reuses one [`Traffic`] buffer through
/// [`Network::exchange_in_place`], so it is allocation-free at steady state.
pub fn run_on_network<A: CongestAlgorithm + ?Sized>(alg: &mut A, net: &mut Network) -> Vec<Output> {
    let mut buf = Traffic::new(net.graph());
    for round in 0..alg.rounds() {
        alg.send_into(round, &mut buf);
        net.exchange_in_place(&mut buf);
        alg.receive(round, &buf);
    }
    alg.outputs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryRole, CorruptionBudget, CorruptionMode, FixedEdges};
    use crate::scenario::doctest_payload;
    use netgraph::generators;

    #[test]
    fn fault_free_run_collects_neighbours() {
        let g = generators::cycle(5);
        let out = run_fault_free(&mut doctest_payload(g));
        assert_eq!(out[0], vec![1, 4]);
        assert_eq!(out[2], vec![1, 3]);
    }

    #[test]
    fn uncompiled_run_on_clean_network_matches_fault_free() {
        let g = generators::cycle(5);
        let fault_free = run_fault_free(&mut doctest_payload(g.clone()));
        let mut net = Network::fault_free(g.clone());
        let networked = run_on_network(&mut doctest_payload(g), &mut net);
        assert_eq!(fault_free, networked);
        assert_eq!(net.round(), 1);
    }

    #[test]
    fn uncompiled_run_is_vulnerable_to_byzantine_corruption() {
        let g = generators::cycle(5);
        let clean = run_fault_free(&mut doctest_payload(g.clone()));
        let target = g.edge_between(0, 1).unwrap();
        let strategy = FixedEdges::new(vec![target]).with_mode(CorruptionMode::Constant(999));
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(strategy),
            CorruptionBudget::Static(vec![target]),
            0,
        );
        let corrupted = run_on_network(&mut doctest_payload(g), &mut net);
        assert_ne!(clean, corrupted, "the baseline must be breakable");
        assert!(corrupted[0].contains(&999) || corrupted[1].contains(&999));
    }
}
