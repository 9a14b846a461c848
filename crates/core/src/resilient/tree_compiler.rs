//! The `f`-mobile-resilient compiler over a weak tree packing (Theorem 3.5) and
//! its CONGESTED CLIQUE instantiation (Theorem 1.6).
//!
//! Every round of the protected algorithm `A` is simulated by a phase:
//!
//! 1. the round's messages are exchanged once (the adversary corrupts at most
//!    `f` edges — at most `2f` ordered mismatches),
//! 2. the message-correction procedure of
//!    [`crate::resilient::correction`] runs over the packing (per-tree
//!    mergeable sketches, RS-compiled and scheduled by Lemma 3.3, followed by
//!    an `ECCSafeBroadcast` of the detected corrections),
//! 3. the corrected inbox is delivered to `A`.
//!
//! The round overhead of each phase is `Õ(D_TP)` for the ℓ0 variant and
//! `Õ(D_TP + f)` for the sparse-recovery variant, matching the paper's two
//! regimes; both are selectable via [`CorrectionVariant`].

use crate::resilient::correction::{
    check_packable, l0_threshold_correction, sparse_majority_correction, CorrectionContext,
    CorrectionReport, UnpackableMessage,
};
use congest_sim::network::Network;
use congest_sim::traffic::Output;
use congest_sim::CongestAlgorithm;
use netgraph::tree_packing::{star_packing, PackingQuality, TreePacking};
use netgraph::Graph;

/// Which message-correction procedure the compiler uses per simulated round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionVariant {
    /// `s`-sparse recovery + majority across trees (`Õ(D_TP + f)` overhead).
    SparseMajority,
    /// Iterated ℓ0-sampling with support thresholds (`Õ(D_TP)` overhead).
    L0Threshold,
}

/// Per-run report of the byzantine compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzantineCompilerReport {
    /// Rounds of the protected algorithm.
    pub payload_rounds: usize,
    /// Total network rounds consumed by the compiled execution.
    pub network_rounds: usize,
    /// Per simulated round: mismatches before and after correction.
    pub per_round: Vec<CorrectionReport>,
    /// Whether every simulated round ended with zero residual mismatches.
    pub fully_corrected: bool,
    /// Quality of the packing the run was compiled over (good trees, max
    /// edge load vs the graph's load floor, minimum-cut usage) — the
    /// structural quantities that predict whether correction can hold.
    pub packing_quality: PackingQuality,
}

/// The Theorem 3.5 compiler: wraps any [`CongestAlgorithm`] and simulates it
/// resiliently over a weak `(k, D_TP, η)` tree packing.
#[derive(Debug, Clone)]
pub struct MobileByzantineCompiler {
    packing: TreePacking,
    /// The mobile fault bound `f` the run should withstand (drives sketch sparsity
    /// and thresholds).
    pub f: usize,
    /// Correction procedure.
    pub variant: CorrectionVariant,
    /// Seed for the compiler's randomness (sketch seeds, share padding).
    pub seed: u64,
    // Everything about the `(graph, packing)` pair the compiler needs per run
    // but that does not depend on the adversary, the seed or the payload:
    // the correction context and the packing-quality measurement (which runs
    // a min-cut computation).
    ctx: CorrectionContext,
    quality: PackingQuality,
}

impl MobileByzantineCompiler {
    /// Create a compiler from an explicit tree packing of `g`, the graph it
    /// will run on.
    ///
    /// This precomputes the per-graph correction state (schedule plan,
    /// spanning flags, broadcast code, packing quality) — the expensive,
    /// adversary-independent half of a compiled run.  `CompilerDef` builds
    /// the compiler in `Compiler::prepare`, so the artifact cache pays for it
    /// once per `(graph, compiler)` pair instead of once per cell.
    pub fn new(g: &Graph, packing: TreePacking, f: usize, seed: u64) -> Self {
        // Measured at the packing's own height: `good_trees` counts the
        // spanning, root-anchored trees the correction majority can use.
        let quality = PackingQuality::measure(
            g,
            &packing,
            packing.trees.first().map_or(0, |t| t.root),
            packing.max_height(),
        );
        MobileByzantineCompiler {
            ctx: CorrectionContext::new(g, &packing),
            quality,
            packing,
            f,
            variant: CorrectionVariant::SparseMajority,
            seed,
        }
    }

    /// Select the correction variant (default: sparse majority).
    pub fn with_variant(mut self, variant: CorrectionVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Run the compiled algorithm on the network (whose adversary should be
    /// byzantine).  Returns the payload outputs and a report, or
    /// [`UnpackableMessage`] as soon as `alg` sends a message the correction
    /// sketches cannot carry.
    pub fn run<A: CongestAlgorithm + ?Sized>(
        &self,
        alg: &mut A,
        net: &mut Network,
    ) -> Result<(Vec<Output>, ByzantineCompilerReport), UnpackableMessage> {
        let start = net.round();
        let r = alg.rounds();
        let mut per_round = Vec::with_capacity(r);
        // Round buffers, reused across all simulated rounds.
        let mut sent = congest_sim::traffic::Traffic::new(net.graph());
        let mut received = congest_sim::traffic::Traffic::new(net.graph());
        let mut fully_corrected = true;
        for round in 0..r {
            alg.send_into(round, &mut sent);
            // While every round so far was corrected, `alg` is in its
            // fault-free state and a word the sketches cannot carry is its
            // own: refuse the run.  Past a failed correction, adversarial
            // garbage may come back as sent words; it is masked like
            // received garbage, and the report says the run failed.
            if fully_corrected {
                check_packable(&sent)?;
            }
            received.clone_from(&sent);
            net.exchange_in_place(&mut received);
            // The sparse-recovery sparsity must cover every word of every message
            // the adversary could have touched this round: O(f) messages of up to
            // `max_words` words each (plus their length records).
            let sparsity = 8 * self.f.max(1) * (sent.max_words().max(1) + 1);
            net.tracer_mut().span_open(obs::Phase::Correction);
            let (corrected, report) = match self.variant {
                CorrectionVariant::SparseMajority => sparse_majority_correction(
                    net,
                    &self.ctx,
                    &self.packing,
                    &sent,
                    &received,
                    sparsity,
                    self.seed ^ ((round as u64) << 20),
                ),
                CorrectionVariant::L0Threshold => l0_threshold_correction(
                    net,
                    &self.ctx,
                    &self.packing,
                    &sent,
                    &received,
                    self.f,
                    8,
                    self.seed ^ ((round as u64) << 20),
                ),
            };
            net.tracer_mut().span_close(obs::Phase::Correction);
            alg.receive(round, &corrected);
            fully_corrected &= report.mismatches_after == 0;
            per_round.push(report);
        }
        Ok((
            alg.outputs(),
            ByzantineCompilerReport {
                payload_rounds: r,
                network_rounds: net.round() - start,
                per_round,
                fully_corrected,
                packing_quality: self.quality,
            },
        ))
    }
}

/// The CONGESTED CLIQUE compiler (Theorem 1.6): the complete graph trivially
/// carries the `(n, 2, 2)` star packing, so any clique algorithm can be
/// protected against `Θ(n)` mobile faults with polylogarithmic overhead.
#[derive(Debug, Clone)]
pub struct CliqueCompiler {
    inner: MobileByzantineCompiler,
}

impl CliqueCompiler {
    /// Build the compiler for the complete graph `g` (rooted at node 0).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a complete graph.
    pub fn new(g: &Graph, f: usize, seed: u64) -> Self {
        let packing = star_packing(g, 0);
        CliqueCompiler {
            inner: MobileByzantineCompiler::new(g, packing, f, seed),
        }
    }

    /// Select the correction variant (default: sparse majority).
    pub fn with_variant(mut self, variant: CorrectionVariant) -> Self {
        self.inner = self.inner.with_variant(variant);
        self
    }

    /// The largest `f` for which the clique compiler's majority argument is
    /// guaranteed at clique size `n` with the crate's scheduler constants:
    /// the star packing has `k = n`, `η = 2`, and a majority of instances must
    /// survive `t_RS·c_RS·f·η` failures, i.e. `f < n / (2·t_RS·c_RS·η)`.
    pub fn max_tolerable_f(n: usize) -> usize {
        let denom = 2 * interactive_coding::T_RS * interactive_coding::C_RS * 2;
        (n.saturating_sub(1)) / denom
    }

    /// Run the compiled clique algorithm (see [`MobileByzantineCompiler::run`]).
    pub fn run<A: CongestAlgorithm + ?Sized>(
        &self,
        alg: &mut A,
        net: &mut Network,
    ) -> Result<(Vec<Output>, ByzantineCompilerReport), UnpackableMessage> {
        self.inner.run(alg, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::{FloodBroadcast, LeaderElection, TokenDissemination};
    use congest_sim::adversary::{
        AdversaryRole, CorruptionBudget, CorruptionMode, GreedyHeaviest, RandomMobile,
    };
    use congest_sim::{run_fault_free, run_on_network};
    use netgraph::generators;
    use netgraph::tree_packing::greedy_low_depth_packing;

    fn byz_net(g: Graph, f: usize, seed: u64) -> Network {
        Network::new(
            g,
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(f, seed).with_mode(CorruptionMode::ReplaceRandom)),
            CorruptionBudget::Mobile { f },
            seed,
        )
    }

    #[test]
    fn clique_compiler_protects_broadcast() {
        let g = generators::complete(16);
        let f = 2;
        let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 4242));
        let compiler = CliqueCompiler::new(&g, f, 7);
        let mut net = byz_net(g.clone(), f, 13);
        let (out, report) = compiler
            .run(&mut FloodBroadcast::new(g.clone(), 0, 4242), &mut net)
            .unwrap();
        assert_eq!(out, expected);
        assert!(report.fully_corrected);
        assert!(report.network_rounds > report.payload_rounds);
    }

    #[test]
    fn clique_compiler_protects_token_dissemination() {
        let g = generators::complete(12);
        let f = 1;
        let tokens: Vec<u64> = (0..12).map(|v| 500 + v).collect();
        let expected = run_fault_free(&mut TokenDissemination::new(g.clone(), tokens.clone(), 12));
        let compiler = CliqueCompiler::new(&g, f, 3);
        let mut net = byz_net(g.clone(), f, 5);
        let (out, report) = compiler
            .run(
                &mut TokenDissemination::new(g.clone(), tokens, 12),
                &mut net,
            )
            .unwrap();
        assert_eq!(out, expected);
        assert!(report.fully_corrected);
    }

    #[test]
    fn uncompiled_baseline_fails_where_compiler_succeeds() {
        let g = generators::complete(16);
        let f = 3;
        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        // Baseline: run uncompiled under a targeted adversary — should break.
        let mut baseline_net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(GreedyHeaviest::new(f).with_mode(CorruptionMode::Constant(3))),
            CorruptionBudget::Mobile { f },
            1,
        );
        let baseline = run_on_network(&mut LeaderElection::new(g.clone()), &mut baseline_net);
        // Compiled: same adversary class.
        let compiler = CliqueCompiler::new(&g, f, 5);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(GreedyHeaviest::new(f).with_mode(CorruptionMode::Constant(3))),
            CorruptionBudget::Mobile { f },
            1,
        );
        let (out, report) = compiler
            .run(&mut LeaderElection::new(g.clone()), &mut net)
            .unwrap();
        assert_eq!(out, expected, "compiled run must be correct");
        assert!(report.fully_corrected);
        // The uncompiled run saw corrupted values (it may still luck into the right
        // answer at some nodes, but the traffic was definitely tampered with).
        assert!(baseline_net.metrics().corrupted_messages > 0);
        let _ = baseline;
    }

    #[test]
    fn general_graph_compiler_with_greedy_packing() {
        let g = generators::circulant(18, 4); // 8-edge-connected
        let f = 1;
        let packing = greedy_low_depth_packing(&g, 0, 9, 2);
        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        let compiler = MobileByzantineCompiler::new(&g, packing, f, 11);
        let mut net = byz_net(g.clone(), f, 21);
        let (out, report) = compiler
            .run(&mut LeaderElection::new(g.clone()), &mut net)
            .unwrap();
        assert_eq!(out, expected);
        assert!(report.fully_corrected);
    }

    #[test]
    fn l0_variant_also_protects_the_clique() {
        let g = generators::complete(20);
        let f = 1;
        let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 99));
        let compiler = MobileByzantineCompiler::new(&g, star_packing(&g, 0), f, 3)
            .with_variant(CorrectionVariant::L0Threshold);
        let mut net = byz_net(g.clone(), f, 9);
        let (out, _report) = compiler
            .run(&mut FloodBroadcast::new(g.clone(), 0, 99), &mut net)
            .unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn max_tolerable_f_scales_linearly() {
        assert!(CliqueCompiler::max_tolerable_f(64) >= 2 * CliqueCompiler::max_tolerable_f(32));
        assert!(CliqueCompiler::max_tolerable_f(16) >= 1);
    }
}
