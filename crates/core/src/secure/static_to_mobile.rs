//! The static→mobile security simulation (Theorem 1.2).
//!
//! Given any `r`-round algorithm `A` that is `f`-static-secure (in particular,
//! any algorithm composed with a static-secure transport — or a fault-free
//! algorithm whose leakage one wants to cap to what an `f`-static eavesdropper
//! could see), the compiler produces an `r' = 2r + t`-round algorithm that is
//! `f' = ⌊f·(t+1)/(r+t)⌋`-mobile-secure:
//!
//! 1. **Phase 1 (`ℓ = r + t` rounds)** — neighbours exchange random pads and
//!    condense them with the Vandermonde extraction into `r` one-time-pad keys
//!    per directed edge ([`super::keys::KeyPool`]).
//! 2. **Phase 2 (`r` rounds)** — `A` runs round by round with every message
//!    XORed with its edge's round key.
//!
//! Every message the mobile eavesdropper sees on a *good* edge (observed in at
//! most `t` phase-1 rounds) is a one-time pad — uniform and independent of the
//! input.  Messages on the ≤ `f` bad edges are exactly what an `f`-static
//! eavesdropper of `A` would have seen, which is where the `f`-static security
//! of `A` is consumed.

use crate::secure::keys::{KeyPool, KeyScheduleError, PayloadTooWide};
use congest_sim::network::Network;
use congest_sim::traffic::{Output, Traffic};
use congest_sim::CongestAlgorithm;

/// Parameter/result report of a compiled static→mobile run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MobileSecureReport {
    /// Rounds spent in the key-exchange phase (`r + t`).
    pub key_rounds: usize,
    /// Rounds spent simulating `A` (`r`).
    pub simulation_rounds: usize,
}

/// The Theorem 1.2 compiler.
#[derive(Debug, Clone, Copy)]
pub struct StaticToMobileCompiler {
    /// The slack parameter `t`: larger `t` costs more key-exchange rounds but
    /// tolerates proportionally more mobile corruption.
    pub t: usize,
    /// Maximum payload width (words) of the algorithm being protected.
    pub words_per_message: usize,
    /// Seed for the nodes' private randomness.
    pub seed: u64,
}

impl StaticToMobileCompiler {
    /// A compiler with slack `t` protecting messages of up to
    /// `words_per_message` words.
    pub fn new(t: usize, words_per_message: usize, seed: u64) -> Self {
        StaticToMobileCompiler {
            t,
            words_per_message,
            seed,
        }
    }

    /// The mobile tolerance `f'` obtained from a static tolerance `f` for an
    /// `r`-round algorithm: `⌊f·(t+1)/(r+t)⌋` (Theorem 1.2).
    pub fn mobile_tolerance(&self, f_static: usize, r: usize) -> usize {
        f_static * (self.t + 1) / (r + self.t)
    }

    /// Total compiled round count for an `r`-round algorithm: `2r + t`.
    pub fn compiled_rounds(&self, r: usize) -> usize {
        2 * r + self.t
    }

    /// Run the compiled algorithm on the network (whose adversary should be an
    /// eavesdropper — the compiler provides secrecy, not integrity).
    ///
    /// Returns the algorithm outputs (identical to a fault-free run, since the
    /// eavesdropper does not modify traffic) and a report of the parameters.
    ///
    /// # Errors
    ///
    /// [`KeyScheduleError::TooManyExchangeRounds`] before any round when
    /// `r + t` exceeds the field, and [`KeyScheduleError::PayloadTooWide`] as
    /// soon as `alg` sends a message of more than `words_per_message` words.
    pub fn run<A: CongestAlgorithm + ?Sized>(
        &self,
        alg: &mut A,
        net: &mut Network,
    ) -> Result<(Vec<Output>, MobileSecureReport), KeyScheduleError> {
        let g = net.graph().clone();
        let r = alg.rounds();
        // Phase 1: establish one-time pads (ℓ = r + t exchange rounds).
        let pool = KeyPool::establish(net, self.seed, r, self.words_per_message, self.t)?;
        let key_rounds = pool.exchange_rounds();

        // Phase 2: round-by-round OTP simulation of A.  One traffic buffer
        // carries each round through: the pads are XORed into it in place
        // before the exchange and again (XOR is an involution, receivers hold
        // the same per-arc keys) after it.
        let mut wire = Traffic::new(&g);
        for round in 0..r {
            alg.send_into(round, &mut wire);
            let observed = wire.max_words();
            if observed > self.words_per_message {
                return Err(PayloadTooWide {
                    observed,
                    configured: self.words_per_message,
                }
                .into());
            }
            pad_in_place(&pool, round, &mut wire);
            net.exchange_in_place(&mut wire);
            pad_in_place(&pool, round, &mut wire);
            alg.receive(round, &wire);
        }

        let report = MobileSecureReport {
            key_rounds,
            simulation_rounds: r,
        };
        Ok((alg.outputs(), report))
    }
}

/// XOR every present message with its arc's key for this round.
fn pad_in_place(pool: &KeyPool, round: usize, wire: &mut Traffic) {
    for arc in 0..wire.arc_slots() {
        if let Some(payload) = wire.arc_mut(arc) {
            pool.apply(arc, round, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::{ConvergecastSum, FloodBroadcast, LeaderElection, TokenDissemination};
    use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile, ScheduledEdges};
    use congest_sim::run_fault_free;
    use congest_sim::scenario::matrix::graph_zoo_defs;
    use netgraph::generators;

    fn eaves_net(g: netgraph::Graph, f: usize, seed: u64) -> Network {
        Network::new(
            g,
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(f, seed)),
            CorruptionBudget::Mobile { f },
            seed,
        )
    }

    #[test]
    fn compiled_output_matches_fault_free() {
        let g = generators::grid(3, 3);
        let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 321));
        let compiler = StaticToMobileCompiler::new(4, 2, 99);
        let mut net = eaves_net(g.clone(), 2, 7);
        let (out, report) = compiler
            .run(&mut FloodBroadcast::new(g.clone(), 0, 321), &mut net)
            .unwrap();
        assert_eq!(out, expected);
        assert_eq!(
            report.simulation_rounds,
            FloodBroadcast::new(g, 0, 321).rounds()
        );
        assert_eq!(net.round(), report.key_rounds + report.simulation_rounds);
    }

    #[test]
    fn a_too_wide_payload_message_is_a_typed_error() {
        // Token dissemination at batch 2 sends 2-word messages from round 1.
        let g = generators::complete(5);
        let mut alg = TokenDissemination::new(g.clone(), (0..5).collect(), 2);
        let mut net = eaves_net(g, 1, 3);
        let error = StaticToMobileCompiler::new(4, 1, 9).run(&mut alg, &mut net);
        assert_eq!(
            error.unwrap_err(),
            KeyScheduleError::PayloadTooWide(PayloadTooWide {
                observed: 2,
                configured: 1
            })
        );
    }

    #[test]
    fn a_slack_past_the_field_is_a_typed_error_before_any_round() {
        // `t = 2^16` gives ℓ = r + t > 2^16 − 1 evaluation points; this
        // used to be the `expect` in `KeyPool::establish`, exit 101.
        let g = generators::complete(4);
        let mut alg = FloodBroadcast::new(g.clone(), 0, 7);
        let r = alg.rounds();
        let mut net = eaves_net(g, 1, 3);
        let error = StaticToMobileCompiler::new(1 << 16, 1, 5).run(&mut alg, &mut net);
        assert_eq!(
            error.unwrap_err(),
            KeyScheduleError::TooManyExchangeRounds {
                rounds: r,
                threshold: 1 << 16
            }
        );
        assert_eq!(net.round(), 0);
    }

    #[test]
    fn round_and_tolerance_arithmetic() {
        let c = StaticToMobileCompiler::new(10, 1, 0);
        assert_eq!(c.compiled_rounds(5), 20);
        assert_eq!(c.mobile_tolerance(4, 5), 4 * 11 / 15);
        // t ≥ 2fr keeps f' = f (Theorem 1.2, second clause).
        let big_t = StaticToMobileCompiler::new(2 * 3 * 5, 1, 0);
        assert_eq!(c.mobile_tolerance(0, 5), 0);
        assert_eq!(big_t.mobile_tolerance(3, 5), 3 * 31 / 35);
    }

    /// Theorem 1.2 on real runs: `ℓ = r + t` key rounds then `r` simulated
    /// ones, `2r + t` in all, across the zoo, with the fault-free outputs;
    /// and the tolerated mobility `f'` is the largest whose `f'·ℓ` observed
    /// edge-rounds fit in `f` edges seen `t + 1` times each — the fewest
    /// observations that pin an edge's keys down.
    #[test]
    fn compiled_runs_take_exactly_the_stated_rounds_across_the_zoo() {
        let f_static = 4;
        for def in graph_zoo_defs(2024) {
            let g = def.build().expect("zoo graph builds");
            let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 77));
            for t in [1usize, 3, 32] {
                let compiler = StaticToMobileCompiler::new(t, 1, 13);
                let mut alg = FloodBroadcast::new(g.clone(), 0, 77);
                let r = alg.rounds();
                let mut net = eaves_net(g.clone(), 2, 5);
                let (out, report) = compiler.run(&mut alg, &mut net).unwrap();
                assert_eq!(report.key_rounds, r + t, "{def:?} t {t}");
                assert_eq!(report.simulation_rounds, r, "{def:?} t {t}");
                assert_eq!(net.round(), compiler.compiled_rounds(r), "{def:?} t {t}");
                assert_eq!(out, expected, "{def:?} t {t}");
                let f_mobile = compiler.mobile_tolerance(f_static, r);
                assert!(f_mobile * (r + t) <= f_static * (t + 1), "{def:?} t {t}");
                assert!(
                    (f_mobile + 1) * (r + t) > f_static * (t + 1),
                    "{def:?} t {t}"
                );
            }
        }
    }

    #[test]
    fn works_for_multiple_payloads() {
        let g = generators::cycle(7);
        let compiler = StaticToMobileCompiler::new(3, 2, 5);

        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        let mut net = eaves_net(g.clone(), 1, 3);
        let (out, _) = compiler
            .run(&mut LeaderElection::new(g.clone()), &mut net)
            .unwrap();
        assert_eq!(out, expected);

        let inputs: Vec<u64> = (0..7).collect();
        let expected = run_fault_free(&mut ConvergecastSum::new(g.clone(), 0, inputs.clone()));
        let mut net = eaves_net(g.clone(), 1, 4);
        let (out, _) = compiler
            .run(&mut ConvergecastSum::new(g.clone(), 0, inputs), &mut net)
            .unwrap();
        assert_eq!(out, expected);
    }

    /// Empirical perfect-security check: for a *coupled* adversary schedule that
    /// only ever observes good edges during phase 2, the ciphertexts it sees are
    /// one-time pads — so two executions with different inputs but identical
    /// node randomness produce views that differ only where the plaintext is
    /// XORed with the *same* pad... i.e. the view alone cannot reveal which
    /// input was used unless the pad is known.  We verify the operational
    /// consequence used in the proof: on edges never observed during phase 1,
    /// the phase-2 ciphertext is independent of the payload *given the view*
    /// (here: changing the input changes the plaintext but the adversary's two
    /// views remain individually uniform-looking; concretely we check the view
    /// is NOT equal to the plaintext traffic and that identical inputs with
    /// different hidden randomness give different views).
    #[test]
    fn phase2_ciphertexts_on_unobserved_edges_are_padded() {
        let g = generators::path(4);
        let r = FloodBroadcast::new(g.clone(), 0, 5).rounds();
        let t = 2;
        let key_rounds = r + t;
        // Observe edge 0 only during phase 2 (never in phase 1): the key of edge 0
        // is then perfectly hidden and its ciphertext is a fresh pad.
        let mut schedule = vec![vec![]; key_rounds];
        schedule.extend(std::iter::repeat_n(vec![0usize], r));
        let make_net = |seed: u64| {
            Network::new(
                g.clone(),
                AdversaryRole::Eavesdropper,
                Box::new(ScheduledEdges::new(schedule.clone())),
                CorruptionBudget::Mobile { f: 1 },
                seed,
            )
        };
        let compiler_a = StaticToMobileCompiler::new(t, 1, 1000);
        let compiler_b = StaticToMobileCompiler::new(t, 1, 2000);
        let mut net1 = make_net(1);
        compiler_a
            .run(&mut FloodBroadcast::new(g.clone(), 0, 5), &mut net1)
            .unwrap();
        let mut net2 = make_net(1);
        compiler_b
            .run(&mut FloodBroadcast::new(g.clone(), 0, 5), &mut net2)
            .unwrap();
        // Same input, different hidden randomness → different views: the view is
        // determined by the pads, not by the payload.
        assert_ne!(
            net1.view_log().canonical(),
            net2.view_log().canonical(),
            "view must depend on hidden pads"
        );
        // And the observed ciphertext never equals the plaintext value (5) in
        // the clear (probability 2^-64 per observation).
        for entry in &net1.view_log().entries {
            if let Some(fwd) = &entry.forward {
                assert_ne!(fwd, &vec![5u64]);
            }
        }
    }
}
