//! The round-error-rate compiler (Theorem 4.1): rewind-if-error over a tree
//! packing.
//!
//! The adversary may now corrupt `f` edges per round *on average* — quiet
//! stretches followed by bursts.  A fixed per-round correction budget can be
//! overwhelmed by a burst, so the compiler verifies, after every simulated
//! ("global") round, whether the network's view of the transcript is still
//! consistent, and rewinds the last committed round whenever it is not:
//!
//! * **round-initialisation** — the next round's messages are repeated `2t`
//!   times and received by majority (bursts must now spend `t` corruptions per
//!   message they want to flip),
//! * **message correction** — the `d`-message correction procedure (Lemma 4.2,
//!   here the sparse-majority correction over the packing),
//! * **rewind-if-error** — transcript hashes are compared and a global
//!   `GoodState` bit plus the maximum transcript length are aggregated over the
//!   packing's trees (majority of RS-compiled instances); on `GoodState = 0`
//!   the last committed round is popped.
//!
//! > **Substitution note** (see "Deviations from the paper" in
//! > `docs/ARCHITECTURE.md`): the paper lets different nodes sit
//! > at different local rounds; this reproduction keeps the network
//! > synchronised (the rewind decision is global), which preserves the
//! > potential-function behaviour — good global rounds add progress, bursty
//! > ones cost at most a constant — at the price of a slightly larger constant
//! > in the round overhead.
//!
//! The protected algorithm is supplied as a *factory* because rewinding means
//! re-simulating it from the committed transcript prefix.

use crate::resilient::correction::{
    check_packable, sparse_majority_correction, CorrectionContext, UnpackableMessage,
};
use congest_sim::network::Network;
use congest_sim::traffic::{Output, Traffic};
use congest_sim::CongestAlgorithm;
use interactive_coding::{most_frequent, RsScheduler};
use netgraph::tree_packing::TreePacking;

/// Report of a rewind-compiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewindReport {
    /// Number of global rounds executed.
    pub global_rounds: usize,
    /// Number of rewinds performed.
    pub rewinds: usize,
    /// Committed simulated rounds at the end (should equal the payload's round count).
    pub committed_rounds: usize,
    /// The committed-prefix length after every global round (the potential trace).
    pub progress_trace: Vec<usize>,
    /// Total network rounds consumed.
    pub network_rounds: usize,
    /// Whether the payload completed all of its rounds.
    pub completed: bool,
}

/// The Theorem 4.1 compiler.
pub struct RewindCompiler {
    packing: TreePacking,
    /// Average per-round corruption bound `f` being defended against.
    pub f: usize,
    /// Repetition factor for the round-initialisation phase.
    pub repetitions: usize,
    /// Safety factor on the number of global rounds (the paper uses 5).
    pub slack: usize,
    /// Randomness seed.
    pub seed: u64,
}

impl RewindCompiler {
    /// Create a rewind compiler over the given packing.
    pub fn new(packing: TreePacking, f: usize, seed: u64) -> Self {
        RewindCompiler {
            packing,
            f,
            repetitions: 3,
            slack: 5,
            seed,
        }
    }

    /// Run the compiled algorithm.  `make_alg` must return a fresh instance of
    /// the payload algorithm each time it is called (rewinding re-simulates the
    /// committed prefix).  Fails with [`UnpackableMessage`] as soon as a
    /// round's intended messages cannot go through the correction sketches.
    pub fn run<A, F>(
        &self,
        make_alg: F,
        net: &mut Network,
    ) -> Result<(Vec<Output>, RewindReport), UnpackableMessage>
    where
        A: CongestAlgorithm,
        F: Fn() -> A,
    {
        let g = net.graph().clone();
        let start = net.round();
        let r = make_alg().rounds();
        let global_rounds = self.slack * r.max(1);
        let dtp = self.packing.max_height().max(1);
        // Correction state (schedule plan, spanning flags, broadcast code) is a
        // pure function of `(g, packing)` — build it once, not per global round.
        // The verdict schedules through the same plan.
        let ctx = CorrectionContext::new(&g, &self.packing);

        // committed[j] = the (corrected) traffic delivered in simulated round j.
        let mut committed: Vec<Traffic> = Vec::new();
        let mut rewinds = 0usize;
        let mut progress_trace = Vec::with_capacity(global_rounds);
        // The replayed rounds' messages, one buffer for the whole run.
        let mut intended = Traffic::new(&g);

        for _global in 0..global_rounds {
            if committed.len() >= r {
                progress_trace.push(committed.len());
                continue;
            }
            let sim_round = committed.len();

            // Recompute the intended messages of `sim_round` from the committed
            // prefix, checking on the way that every committed round is what
            // the payload intended (the transcript-hash check of the rewind
            // phase, evaluated on the ground truth).
            let mut replay = make_alg();
            let mut consistent = true;
            for (j, delivered) in committed.iter().enumerate() {
                replay.send_into(j, &mut intended);
                consistent &= intended == *delivered;
                replay.receive(j, delivered);
            }
            replay.send_into(sim_round, &mut intended);
            // A consistent prefix leaves the payload in its fault-free state,
            // so a word the sketches cannot carry is its own: refuse the run.
            // Past a lying verdict's commit, adversarial garbage may come back
            // as intended words; it is masked like received garbage.
            if consistent {
                check_packable(&intended)?;
            }

            // Phase A: round-initialisation — repeat the exchange and take the
            // per-arc majority.
            let mut copies: Vec<Traffic> = Vec::with_capacity(self.repetitions);
            for _ in 0..self.repetitions.max(1) {
                copies.push(net.exchange(intended.clone()));
            }
            // Ties go to the smallest value, an absent message first (the
            // `most_frequent` rule), so the vote — and with it the whole
            // trajectory — is the same on every run.
            let mut majority = Traffic::new(&g);
            for arc in 0..g.arc_count() {
                if let Some(val) = most_frequent(copies.iter().map(|c| c.get_arc(arc))) {
                    majority.set_arc(arc, val);
                }
            }

            // Phase B: message correction (Lemma 4.2).
            net.tracer_mut().span_open(obs::Phase::Correction);
            let (corrected, _rep) = sparse_majority_correction(
                net,
                &ctx,
                &self.packing,
                &intended,
                &majority,
                8 * self.f.max(1) * (intended.max_words().max(1) + 1),
                self.seed ^ ((sim_round as u64) << 18),
            );
            net.tracer_mut().span_close(obs::Phase::Correction);

            // Phase C: rewind-if-error — verify the whole committed prefix plus
            // the new round, with the verdict aggregated over the packing's trees.
            let honest_good = consistent && corrected.agrees_with(&intended);
            let sched = RsScheduler.run_planned(net, &self.packing, ctx.plan(), dtp + 2);
            let verdict_trustworthy = 2 * sched.success_count() > self.packing.len();
            let good_state = if verdict_trustworthy {
                honest_good
            } else {
                // The adversary controls the verdict: the worst it can do is lie.
                !honest_good
            };

            if good_state {
                committed.push(corrected);
            } else if !committed.is_empty() && !honest_good {
                committed.pop();
                rewinds += 1;
            } else if !honest_good {
                // Nothing to rewind; the round is simply retried.
                rewinds += 1;
            } else {
                // A corrupted verdict rejected a good round: retry (counts as a rewind).
                rewinds += 1;
            }
            if !good_state {
                net.tracer_mut().point(obs::EventKind::RewindTriggered {
                    committed: committed.len(),
                });
            }
            progress_trace.push(committed.len());
        }

        // Deliver the committed transcript to a fresh payload instance.
        let completed = committed.len() >= r;
        let mut final_alg = make_alg();
        for (j, delivered) in committed.iter().take(r).enumerate() {
            final_alg.send_into(j, &mut intended);
            final_alg.receive(j, delivered);
        }
        let report = RewindReport {
            global_rounds,
            rewinds,
            committed_rounds: committed.len(),
            progress_trace,
            network_rounds: net.round() - start,
            completed,
        };
        Ok((final_alg.outputs(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::{FloodBroadcast, LeaderElection};
    use congest_sim::adversary::{AdversaryRole, BurstAdversary, CorruptionBudget, RandomMobile};
    use congest_sim::run_fault_free;
    use netgraph::generators;
    use netgraph::tree_packing::star_packing;

    #[test]
    fn rewind_compiler_fault_free() {
        let g = generators::complete(10);
        let packing = star_packing(&g, 0);
        let compiler = RewindCompiler::new(packing, 1, 3);
        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        let mut net = Network::fault_free(g.clone());
        let (out, report) = compiler
            .run(|| LeaderElection::new(g.clone()), &mut net)
            .unwrap();
        assert_eq!(out, expected);
        assert!(report.completed);
        assert_eq!(report.rewinds, 0);
    }

    #[test]
    fn rewind_compiler_survives_bursts_within_budget() {
        let g = generators::complete(14);
        let packing = star_packing(&g, 0);
        let f = 1;
        let r = FloodBroadcast::new(g.clone(), 0, 7).rounds();
        let compiler = RewindCompiler::new(packing, f, 5);
        // Round-error-rate budget: f per round on average over the whole
        // compiled execution, spent in bursts.
        let expected_network_rounds = 2000;
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(BurstAdversary::new(40, 4, 12, 3)),
            CorruptionBudget::RoundErrorRate {
                total: f * expected_network_rounds / 10,
            },
            3,
        );
        let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 7));
        let (out, report) = compiler
            .run(|| FloodBroadcast::new(g.clone(), 0, 7), &mut net)
            .unwrap();
        assert!(
            report.completed,
            "progress trace: {:?}",
            report.progress_trace
        );
        assert_eq!(out, expected);
        assert!(report.committed_rounds >= r);
    }

    #[test]
    fn rewind_compiler_with_steady_mobile_noise() {
        let g = generators::complete(12);
        let packing = star_packing(&g, 0);
        let f = 1;
        let compiler = RewindCompiler::new(packing, f, 9);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(f, 11)),
            CorruptionBudget::Mobile { f },
            11,
        );
        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        let (out, report) = compiler
            .run(|| LeaderElection::new(g.clone()), &mut net)
            .unwrap();
        assert!(report.completed);
        assert_eq!(out, expected);
    }

    #[test]
    fn progress_trace_is_monotone_up_to_rewinds() {
        let g = generators::complete(10);
        let packing = star_packing(&g, 0);
        let compiler = RewindCompiler::new(packing, 1, 1);
        let mut net = Network::fault_free(g.clone());
        let (_, report) = compiler
            .run(|| LeaderElection::new(g.clone()), &mut net)
            .unwrap();
        for w in report.progress_trace.windows(2) {
            assert!(
                w[1] + 1 >= w[0],
                "progress may drop by at most 1 per global round"
            );
        }
    }
}
