//! `ECCSafeBroadcast` (Lemma 3.6): byzantine-resilient broadcast of a root
//! message over a weak tree packing.
//!
//! The root Reed–Solomon-encodes its message into `k` symbols, ships symbol `j`
//! down tree `j` (all `k` RS-compiled tree broadcasts run in parallel via the
//! Lemma 3.3 scheduler), and every node decodes the nearest codeword from the
//! symbols it received.  As long as the number of failed tree instances stays
//! below the code's error capacity — which the scheduler guarantees for
//! `k = Ω(η·f)` — every node recovers the message exactly; so a chunk within
//! that capacity is not decoded at all, since its decode is known to return
//! the chunk.

use coding::field::Field;
use coding::{Gf2_16, ReedSolomon};
use congest_sim::network::Network;
use interactive_coding::{RsScheduler, SchedulePlan};
use netgraph::tree_packing::TreePacking;
use netgraph::Graph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Report of one safe broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafeBroadcastReport {
    /// Network rounds consumed.
    pub rounds: usize,
    /// Number of sequential Reed–Solomon chunks.
    pub chunks: usize,
    /// Tree instances that failed in the worst chunk.
    pub max_failed_trees: usize,
    /// Whether every node decoded the original message.
    pub unanimous: bool,
}

/// Number of 16-bit Reed–Solomon symbols per 64-bit message word.
const SYMBOLS_PER_WORD: usize = 4;

/// Data symbols per Reed–Solomon chunk over a `k`-tree packing (relative
/// distance ≥ 3/4 by construction).
pub fn rs_data_symbols(k: usize) -> usize {
    (k / 4).max(1)
}

/// How many failed (or non-spanning) tree instances the safe broadcast over a
/// `k`-tree packing tolerates per chunk: the error capacity
/// `⌊(k − ℓ)/2⌋` of the `RS(ℓ, k)` code with `ℓ =` [`rs_data_symbols`].
///
/// This is the number that turns packing quality into a correction
/// *prediction*: a heaviest-edge mobile adversary can fail every tree
/// scheduled over one edge, so correction survives focused attacks exactly
/// when the packing's maximum edge load stays at or below this capacity.
pub fn rs_error_capacity(k: usize) -> usize {
    k.saturating_sub(rs_data_symbols(k)) / 2
}

/// Precomputed, topology-only state for [`ecc_safe_broadcast`] over a fixed
/// `(graph, packing)` pair: which trees are usable (spanning with the common
/// root), the Lemma 3.3 [`SchedulePlan`], and the `RS(ℓ, k)` code with its
/// precomputed encode/decode matrices.
///
/// The correction layer broadcasts once per retry attempt per simulated round,
/// so building this per call repeats `O(k·n)` spanning walks and a Vandermonde
/// inversion every time.  Build it once per packing instead — in
/// `Compiler::prepare`, where the campaign artifact cache shares it across
/// cells.
#[derive(Debug, Clone)]
pub struct BroadcastContext {
    packing: TreePacking,
    /// Per tree: spanning *and* rooted at the packing's common root.
    usable: Vec<bool>,
    plan: Arc<SchedulePlan>,
    rs: ReedSolomon<Gf2_16>,
    dtp: usize,
    ell: usize,
}

impl BroadcastContext {
    /// Precompute the broadcast state for `packing` over `g`.
    ///
    /// # Panics
    ///
    /// Panics if the packing is empty.
    pub fn new(g: &Graph, packing: &TreePacking) -> Self {
        BroadcastContext::with_plan(g, packing, Arc::new(SchedulePlan::new(g, packing)))
    }

    /// [`BroadcastContext::new`] around an already built plan of
    /// `(g, packing)` — the correction context passes its own when it
    /// broadcasts over the very packing it aggregates over.
    pub(crate) fn with_plan(g: &Graph, packing: &TreePacking, plan: Arc<SchedulePlan>) -> Self {
        assert!(!packing.is_empty(), "tree packing must be non-empty");
        let k = packing.len();
        let ell = rs_data_symbols(k);
        let root = packing.trees[0].root;
        let usable = packing
            .trees
            .iter()
            .map(|t| t.is_spanning(g) && t.root == root)
            .collect();
        BroadcastContext {
            usable,
            plan,
            rs: ReedSolomon::new(ell, k).expect("ℓ ≤ k by construction"),
            dtp: packing.max_height().max(1),
            ell,
            packing: packing.clone(),
        }
    }

    /// Whether this context schedules through the very `plan` allocation.
    #[cfg(test)]
    pub(crate) fn shares_plan(&self, plan: &Arc<SchedulePlan>) -> bool {
        Arc::ptr_eq(&self.plan, plan)
    }

    /// The packing this context was built for.
    pub fn packing(&self) -> &TreePacking {
        &self.packing
    }
}

/// Broadcast `message` from the root of `ctx`'s packing to all nodes,
/// resiliently against the byzantine adversary configured on `net`.
///
/// Returns each node's decoded message (`None` only if decoding failed, which
/// the Lemma 3.6 parameter regime rules out) and a report.
///
/// Each chunk is decoded **once** instead of once per node: the received word
/// is built from the family run report and the garbage stream, neither of
/// which depends on the receiving node, so all `n` decoders see identical
/// input by construction.  (That is the Lemma 3.6 worst case — the adversary
/// coordinates the garbage across nodes — and has been this module's
/// semantics from the start; a per-node decode would be `n−1` redundant
/// syndrome decodes.)
///
/// All chunks run in **one** pattern scope on `net`: their scheduled rounds
/// are the same rounds as in a scope per chunk, but the traffic volume is
/// settled, and a weighing strategy ranks each slot, once per broadcast
/// instead of once per chunk.
///
/// A chunk is RS-encoded and decoded only when the outcome is open: when
/// more than the code's error capacity `⌊(k − ℓ)/2⌋` of its trees failed or
/// are unusable.  Within capacity, the received word is at most that many
/// symbols from the chunk's codeword, and a bounded-distance decoder of an
/// MDS code returns the unique codeword in that radius, so the chunk is
/// appended as it is.  It still takes its `k` garbage draws, so the chunks
/// after it see the same garbage either way.
///
/// # Panics
///
/// Panics if the message is empty.
pub fn ecc_safe_broadcast(
    net: &mut Network,
    ctx: &BroadcastContext,
    message: &[u64],
    seed: u64,
) -> (Vec<Option<Vec<u64>>>, SafeBroadcastReport) {
    assert!(!message.is_empty(), "message must be non-empty");
    let n = net.graph().node_count();
    let k = ctx.packing.len();
    let start = net.round();

    // Chunking: each chunk carries at most ℓ = max(1, k/4) symbols so the code
    // has relative distance ≥ 3/4 and error capacity ≥ 3k/8 — enough slack for
    // the Lemma 3.3 failure bound plus non-spanning trees of a weak packing.
    let ell = ctx.ell;
    let symbols: Vec<Gf2_16> = message
        .iter()
        .flat_map(|w| (0..SYMBOLS_PER_WORD).map(move |i| Gf2_16::from_u64(w >> (16 * i))))
        .collect();
    let chunks: Vec<&[Gf2_16]> = symbols.chunks(ell).collect();
    let mut fake_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xECC0_FFEE);

    // The decoded symbol stream (identical at every node, see above).
    let mut decoded: Vec<Gf2_16> = Vec::with_capacity(symbols.len());
    let mut decode_ok = true;
    let mut max_failed = 0usize;
    let capacity = ctx.rs.error_capacity();
    let mut padded: Vec<Gf2_16> = Vec::with_capacity(ell);
    let mut received: Vec<Gf2_16> = Vec::with_capacity(k);
    let mut corrupted: Vec<usize> = Vec::with_capacity(k);

    let mut rounds = net.pattern_rounds(&*ctx.plan);
    for chunk in &chunks {
        // One RS-compiled DTP-hop broadcast per tree, scheduled in parallel.  The
        // per-instance round count (and with it the Theorem 3.2 corruption
        // threshold) is padded so that an adversary sweeping over consecutive
        // edge ids cannot fail a tree within a single scheduling window.
        let report = RsScheduler.run_in(&mut rounds, ctx.dtp + 16, &mut corrupted);
        max_failed = max_failed.max(k - report.success_count());

        // Fault-free semantics per instance: a successful tree delivers its
        // symbol to every node; a failed tree delivers adversarial garbage
        // (coordinated across nodes — the worst case for the decoder).  The
        // chunk takes its `k` garbage draws whether it decodes or not, so the
        // chunks after it see the same stream.
        received.clear();
        received.extend((0..k).map(|_| Gf2_16::from_u64(fake_rng.gen())));
        let delivered = |j: usize| report.per_tree[j].ok && ctx.usable[j];
        if (0..k).filter(|&j| !delivered(j)).count() <= capacity {
            // The decode would return the chunk (see the function docs).
            decoded.extend_from_slice(chunk);
            continue;
        }
        padded.clear();
        padded.extend_from_slice(chunk);
        padded.resize(ell, Gf2_16::ZERO);
        let codeword = ctx.rs.encode(&padded).expect("length matches");
        for (j, symbol) in received.iter_mut().enumerate() {
            if delivered(j) {
                *symbol = codeword[j];
            }
        }
        match ctx.rs.decode(&received) {
            Ok(msg) => decoded.extend_from_slice(&msg[..chunk.len()]),
            Err(_) => decode_ok = false,
        }
    }
    drop(rounds);

    // Reassemble words from symbols; every node holds the same stream.
    let node_output: Option<Vec<u64>> = if !decode_ok || decoded.len() < symbols.len() {
        None
    } else {
        Some(
            decoded[..symbols.len()]
                .chunks(SYMBOLS_PER_WORD)
                .map(|group| {
                    group
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (i, s)| acc | (s.to_u64() << (16 * i)))
                })
                .collect(),
        )
    };
    let unanimous = node_output.as_deref() == Some(message);
    let outputs: Vec<Option<Vec<u64>>> = vec![node_output; n];
    let report = SafeBroadcastReport {
        rounds: net.round() - start,
        chunks: chunks.len(),
        max_failed_trees: max_failed,
        unanimous,
    };
    (outputs, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::adversary::{
        AdaptiveHeaviest, AdversaryRole, AdversaryStrategy, BurstAdversary, CorruptionBudget,
        CorruptionMode, EclipseNode, FixedEdges, GreedyHeaviest, NoAdversary, RandomMobile,
        ScheduledEdges, SweepMobile, SynthesizedSchedule,
    };
    use netgraph::tree_packing::{
        augmented_low_depth_packing, greedy_low_depth_packing, star_packing,
    };
    use netgraph::{generators, GraphDef};

    /// The pre-scope `ecc_safe_broadcast`, kept as the oracle: every chunk
    /// runs `run_planned` in a pattern scope of its own and is encoded and
    /// decoded, whatever its trees did.  Pushes each chunk's count of failed
    /// or unusable trees to `bad_trees`.
    fn broadcast_by_chunk_scopes(
        net: &mut Network,
        ctx: &BroadcastContext,
        message: &[u64],
        seed: u64,
        bad_trees: &mut Vec<usize>,
    ) -> (Vec<Option<Vec<u64>>>, SafeBroadcastReport) {
        assert!(!message.is_empty(), "message must be non-empty");
        let n = net.graph().node_count();
        let k = ctx.packing.len();
        let start = net.round();
        let ell = ctx.ell;
        let symbols: Vec<Gf2_16> = message
            .iter()
            .flat_map(|w| (0..SYMBOLS_PER_WORD).map(move |i| Gf2_16::from_u64(w >> (16 * i))))
            .collect();
        let chunks: Vec<&[Gf2_16]> = symbols.chunks(ell).collect();
        let mut fake_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xECC0_FFEE);
        let mut decoded: Vec<Gf2_16> = Vec::with_capacity(symbols.len());
        let mut decode_ok = true;
        let mut max_failed = 0usize;
        let mut received: Vec<Gf2_16> = Vec::with_capacity(k);
        for chunk in &chunks {
            let mut padded = chunk.to_vec();
            padded.resize(ell, Gf2_16::ZERO);
            let codeword = ctx.rs.encode(&padded).expect("length matches");
            let report = RsScheduler.run_planned(net, &ctx.packing, &ctx.plan, ctx.dtp + 16);
            max_failed = max_failed.max(k - report.success_count());
            let garbage: Vec<Gf2_16> = (0..k).map(|_| Gf2_16::from_u64(fake_rng.gen())).collect();
            received.clear();
            for (j, tree_report) in report.per_tree.iter().enumerate() {
                if tree_report.ok && ctx.usable[j] {
                    received.push(codeword[j]);
                } else {
                    received.push(garbage[j]);
                }
            }
            bad_trees.push(
                (report.per_tree.iter())
                    .filter(|t| !(t.ok && ctx.usable[t.tree]))
                    .count(),
            );
            match ctx.rs.decode(&received) {
                Ok(msg) => decoded.extend_from_slice(&msg[..chunk.len().min(ell)]),
                Err(_) => decode_ok = false,
            }
        }
        let node_output: Option<Vec<u64>> = if !decode_ok || decoded.len() < symbols.len() {
            None
        } else {
            Some(
                decoded[..symbols.len()]
                    .chunks(SYMBOLS_PER_WORD)
                    .map(|group| {
                        group
                            .iter()
                            .enumerate()
                            .fold(0u64, |acc, (i, s)| acc | (s.to_u64() << (16 * i)))
                    })
                    .collect(),
            )
        };
        let unanimous = node_output.as_deref() == Some(message);
        let report = SafeBroadcastReport {
            rounds: net.round() - start,
            chunks: chunks.len(),
            max_failed_trees: max_failed,
            unanimous,
        };
        (vec![node_output; n], report)
    }

    /// The zoo's three packing kinds: the clique's star packing (seventeen
    /// trees, four symbols a chunk, so a one-word message is one chunk), v1
    /// on a circulant and v2 on the small world (nine trees, two symbols a
    /// chunk).
    fn zoo_packings() -> Vec<(Graph, TreePacking)> {
        let clique = generators::complete(17);
        let circulant = generators::circulant(18, 4);
        let small_world = GraphDef::watts_strogatz(24, 6, 0.2, 2024 ^ 0x5A11)
            .build()
            .expect("zoo small world builds");
        vec![
            (clique.clone(), star_packing(&clique, 0)),
            (
                circulant.clone(),
                greedy_low_depth_packing(&circulant, 0, 9, 2),
            ),
            (
                small_world.clone(),
                augmented_low_depth_packing(&small_world, 0, 9, 2),
            ),
        ]
    }

    /// Every strategy of `congest_sim::adversary` in `mode` on a mobile
    /// budget of two edges, a round-error-rate budget that runs dry inside
    /// the first broadcast, and an eavesdropper.
    fn zoo_networks(g: &Graph, mode: CorruptionMode) -> Vec<Network> {
        let (f, m) = (2, g.edge_count());
        let schedule = vec![vec![1, m - 1], vec![], vec![0, 2, 4], vec![m / 2]];
        let strategies: Vec<Box<dyn AdversaryStrategy>> = vec![
            Box::new(NoAdversary),
            Box::new(FixedEdges::new(vec![0, 3, m - 1]).with_mode(mode)),
            Box::new(RandomMobile::new(f, 77).with_mode(mode)),
            Box::new(SweepMobile::new(f).with_mode(mode)),
            Box::new(GreedyHeaviest::new(f).with_mode(mode)),
            Box::new(AdaptiveHeaviest::new(f).with_mode(mode)),
            Box::new(EclipseNode::new(1, f).with_mode(mode)),
            Box::new(BurstAdversary::new(1, 2, 3, 78).with_mode(mode)),
            Box::new(ScheduledEdges::new(schedule.clone())),
            Box::new(SynthesizedSchedule::new(schedule).with_mode(mode)),
        ];
        let mut nets: Vec<Network> = strategies
            .into_iter()
            .map(|strategy| {
                let budget = CorruptionBudget::Mobile { f };
                Network::new(g.clone(), AdversaryRole::Byzantine, strategy, budget, 31)
            })
            .collect();
        nets.push(Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(3, 79).with_mode(mode)),
            CorruptionBudget::RoundErrorRate { total: 40 },
            31,
        ));
        nets.push(Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(f, 80)),
            CorruptionBudget::Mobile { f },
            31,
        ));
        nets
    }

    /// The one-scope broadcast against a scope per chunk: over the zoo
    /// packings × every strategy × the four corruption modes, a one-chunk
    /// and a many-chunk message back to back on one network, the outputs,
    /// reports, `Metrics`, `CorruptionHistory`, `ViewLog`, event streams and
    /// the next public coin must all be equal.
    #[test]
    fn one_scope_broadcast_equals_a_scope_per_chunk() {
        let modes = [
            CorruptionMode::ReplaceRandom,
            CorruptionMode::FlipLowBit,
            CorruptionMode::Drop,
            CorruptionMode::Constant(3),
        ];
        let messages: [&[u64]; 2] = [&[0xDEAD_BEEF], &[3, u64::MAX, 0, 42, 1 << 40]];
        let (mut single_chunk, mut acted) = (0, 0);
        // Chunks with exactly `capacity` and `capacity + 1` bad trees: the
        // last one the broadcast skips the decoder for, and the first one it
        // decodes.
        let (mut at_capacity, mut past_capacity) = (0, 0);
        for (g, packing) in zoo_packings() {
            let ctx = BroadcastContext::new(&g, &packing);
            let capacity = rs_error_capacity(packing.len());
            for mode in modes {
                for (mut scoped, mut chunked) in zoo_networks(&g, mode)
                    .into_iter()
                    .zip(zoo_networks(&g, mode))
                {
                    let name = format!("{} {mode:?} k={}", scoped.adversary_name(), packing.len());
                    for net in [&mut scoped, &mut chunked] {
                        net.install_tracer(obs::TraceSpec::ring().build_tracer());
                    }
                    for (i, message) in messages.into_iter().enumerate() {
                        let mut bad_trees = Vec::new();
                        let got = ecc_safe_broadcast(&mut scoped, &ctx, message, 5 + i as u64);
                        let want = broadcast_by_chunk_scopes(
                            &mut chunked,
                            &ctx,
                            message,
                            5 + i as u64,
                            &mut bad_trees,
                        );
                        assert_eq!(got, want, "{name} message {i}");
                        single_chunk += usize::from(got.1.chunks == 1);
                        at_capacity += bad_trees.iter().filter(|&&b| b == capacity).count();
                        past_capacity += bad_trees.iter().filter(|&&b| b == capacity + 1).count();
                    }
                    assert_eq!(scoped.metrics(), chunked.metrics(), "{name}");
                    assert_eq!(
                        scoped.corruption_history(),
                        chunked.corruption_history(),
                        "{name}"
                    );
                    assert_eq!(scoped.view_log(), chunked.view_log(), "{name}");
                    assert_eq!(scoped.public_coin(), chunked.public_coin(), "{name}");
                    let [scoped_trace, chunked_trace] =
                        [&mut scoped, &mut chunked].map(|net| net.take_tracer().finish());
                    assert_eq!(
                        format!("{scoped_trace:?}"),
                        format!("{chunked_trace:?}"),
                        "{name}"
                    );
                    acted += usize::from(scoped.metrics().corrupted_edge_rounds > 0);
                }
            }
        }
        // The clique's one-word message, under all 4 × 12 networks.
        assert_eq!(single_chunk, 4 * 12);
        // Every network but the fault-free one.
        assert_eq!(acted, 3 * 4 * 11);
        assert!(at_capacity > 0, "no chunk at the error capacity");
        assert!(past_capacity > 0, "no chunk one past the error capacity");
    }

    fn byz_net(g: netgraph::Graph, f: usize, seed: u64) -> Network {
        Network::new(
            g,
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(f, seed)),
            CorruptionBudget::Mobile { f },
            seed,
        )
    }

    #[test]
    fn fault_free_safe_broadcast() {
        let g = generators::complete(10);
        let packing = star_packing(&g, 0);
        let ctx = BroadcastContext::new(&g, &packing);
        let mut net = Network::fault_free(g);
        let msg = vec![0xDEAD_BEEF_u64, 77, u64::MAX];
        let (out, report) = ecc_safe_broadcast(&mut net, &ctx, &msg, 1);
        assert!(report.unanimous);
        assert!(out.iter().all(|o| o.as_deref() == Some(&msg[..])));
        assert_eq!(report.max_failed_trees, 0);
    }

    #[test]
    fn survives_mobile_adversary_on_clique() {
        let g = generators::complete(16);
        let packing = star_packing(&g, 0);
        let ctx = BroadcastContext::new(&g, &packing);
        let mut net = byz_net(g, 2, 9);
        let msg = vec![123456789u64, 42];
        let (_, report) = ecc_safe_broadcast(&mut net, &ctx, &msg, 3);
        assert!(
            report.unanimous,
            "broadcast failed: {} trees failed (capacity {})",
            report.max_failed_trees,
            rs_error_capacity(packing.len())
        );
    }

    #[test]
    fn survives_traffic_targeting_adversary() {
        let g = generators::complete(16);
        let packing = star_packing(&g, 0);
        let ctx = BroadcastContext::new(&g, &packing);
        let f = 2;
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(GreedyHeaviest::new(f)),
            CorruptionBudget::Mobile { f },
            5,
        );
        let msg = vec![0xABCDu64];
        let (_, report) = ecc_safe_broadcast(&mut net, &ctx, &msg, 7);
        assert!(report.unanimous);
    }

    #[test]
    fn long_messages_are_chunked() {
        let g = generators::complete(12);
        let packing = star_packing(&g, 0);
        let ctx = BroadcastContext::new(&g, &packing);
        let mut net = Network::fault_free(g);
        let msg: Vec<u64> = (0..20).map(|i| i * 1_000_003).collect();
        let (out, report) = ecc_safe_broadcast(&mut net, &ctx, &msg, 1);
        assert!(report.chunks > 1);
        assert!(report.unanimous);
        assert_eq!(out[5].as_deref(), Some(&msg[..]));
    }

    #[test]
    #[should_panic]
    fn empty_message_rejected() {
        let g = generators::complete(6);
        let packing = star_packing(&g, 0);
        let ctx = BroadcastContext::new(&g, &packing);
        let mut net = Network::fault_free(g);
        let _ = ecc_safe_broadcast(&mut net, &ctx, &[], 1);
    }
}
