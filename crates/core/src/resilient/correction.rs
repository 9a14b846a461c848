//! The message-correction procedure at the heart of the byzantine compilers
//! (Section 3.2.2, Steps 2–3, and Lemma 4.2).
//!
//! After a round's messages have been exchanged (Step 1), every node holds an
//! *estimate* of what it received, and at most `2f` ordered pairs hold a
//! mismatch.  The correction procedure views the round as a turnstile stream —
//! every sent word with frequency `+1`, every received word with frequency
//! `-1` — so correctly delivered words cancel and exactly the mismatched words
//! survive.  Each tree of the packing aggregates a mergeable sketch of the
//! stream, the (common) root combines the per-tree results, and the detected
//! corrections are broadcast back with [`super::safe_broadcast::ecc_safe_broadcast`].
//!
//! Two variants are provided, mirroring the paper:
//!
//! * [`sparse_majority_correction`] — the `Õ(D_TP + f)` variant: each tree
//!   aggregates an `s`-sparse recovery sketch (`s = Θ(f)`); the root takes the
//!   majority decoding across trees (a majority of RS-compiled instances end
//!   correctly, Lemma 3.3), learns the exact mismatch list and broadcasts it.
//! * [`l0_threshold_correction`] — the `Õ(D_TP)` variant: `O(log f)` iterations
//!   of ℓ0-sampling with support thresholds `Δ_j`, reproducing the geometric
//!   mismatch decay of Lemma 3.8 (the report's `decay` is the `B_j` trace,
//!   which `tests::l0_threshold_correction_decays_mismatches` asserts on both
//!   sides of the lemma's premise).

use crate::resilient::safe_broadcast::{ecc_safe_broadcast, BroadcastContext};
use congest_sim::network::Network;
use congest_sim::traffic::Traffic;
use interactive_coding::{RsScheduler, SchedulePlan};
use netgraph::spanning::RootedTree;
use netgraph::tree_packing::TreePacking;
use netgraph::{ArcId, Graph};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sketches::{L0SamplerBank, SketchRandomness, SparseRecovery};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Maximum number of directed arcs of a graph the correction machinery can
/// run on (arc ids are packed into 16 bits).  `CompilerDef::prepare` turns
/// a larger graph into a typed error before anything reaches [`pack_element`].
pub const MAX_ARCS: usize = 1 << 16;
/// Maximum number of payload words per message the correction machinery can
/// track (word indices are packed into 8 bits; index 255 is the length record).
pub const MAX_WORDS: usize = 254;
/// Maximum word value representable in the 40-bit content lane of a sketch element.
pub const MAX_WORD_VALUE: u64 = (1 << 40) - 1;
/// Special word index carrying a message's length.
const LEN_INDEX: u64 = 255;

/// Pack `(arc, word index, content)` into a 64-bit sketch element.
///
/// # Panics
///
/// Panics if the arc id exceeds 16 bits, the index exceeds 8 bits or the value
/// exceeds 40 bits — the CONGEST model's `O(log n)`-bit messages always fit;
/// payloads with wider words cannot be protected by this compiler.
pub fn pack_element(arc: ArcId, index: u64, value: u64) -> u64 {
    assert!(arc < MAX_ARCS, "arc id {arc} exceeds 16 bits");
    assert!(index < 256, "word index {index} exceeds 8 bits");
    assert!(
        value <= MAX_WORD_VALUE,
        "payload word {value:#x} exceeds the 40-bit limit of the byzantine compiler"
    );
    ((arc as u64) << 48) | (index << 40) | value
}

/// A sent message the correction sketches cannot carry: what the compilers'
/// `run` report where the sketch stream would silently truncate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnpackableMessage {
    /// More than [`MAX_WORDS`] words.
    TooManyWords(usize),
    /// A word wider than the [`MAX_WORD_VALUE`] content lane.
    WordTooWide(u64),
}

impl std::fmt::Display for UnpackableMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnpackableMessage::TooManyWords(words) => write!(
                f,
                "the payload sent a {words}-word message; the correction sketches track at \
                 most {MAX_WORDS} words"
            ),
            UnpackableMessage::WordTooWide(word) => write!(
                f,
                "the payload sent the word {word:#x}, wider than the 40-bit lane of the \
                 correction sketches"
            ),
        }
    }
}

impl std::error::Error for UnpackableMessage {}

/// Check one *sent* round against the element layout of [`pack_element`].
/// Received rounds are never checked: their words may be adversarial garbage,
/// which the sketch stream masks instead of aborting the run.
pub fn check_packable(sent: &Traffic) -> Result<(), UnpackableMessage> {
    for (_, words) in sent.iter_present() {
        if words.len() > MAX_WORDS {
            return Err(UnpackableMessage::TooManyWords(words.len()));
        }
        if let Some(&word) = words.iter().find(|&&w| w > MAX_WORD_VALUE) {
            return Err(UnpackableMessage::WordTooWide(word));
        }
    }
    Ok(())
}

/// Inverse of [`pack_element`].
pub fn unpack_element(element: u64) -> (ArcId, u64, u64) {
    (
        (element >> 48) as ArcId,
        (element >> 40) & 0xFF,
        element & MAX_WORD_VALUE,
    )
}

/// Feed one message (or its absence) into a sketch-updating closure as
/// `(element, ±1)` pairs.
///
/// Sent messages (`sign > 0`) obey the compiler's packing limits: their words
/// come from the protected algorithm, which [`check_packable`] refuses while
/// its state is still fault-free.  Received messages (`sign < 0`)
/// may contain arbitrary adversarial garbage; their words are truncated to the
/// 40-bit content lane, which is sound because negative records are only used
/// to *remove* a receiver's word at a given index, never to set a value.
fn stream_message<F: FnMut(u64, i64)>(arc: ArcId, payload: Option<&[u64]>, sign: i64, f: &mut F) {
    if let Some(words) = payload {
        let len = (words.len() as u64).min(LEN_INDEX - 1);
        // Words are tracked modulo 2^40 (the content lane of the packed element).
        // Honest CONGEST payloads are O(log n)-bit and fit exactly; adversarial
        // garbage — or payload state already poisoned by an earlier failed
        // correction — is truncated rather than crashing the run.
        let pack =
            |idx: u64, value: u64| pack_element(arc, idx.min(LEN_INDEX), value & MAX_WORD_VALUE);
        f(pack(LEN_INDEX, len), sign);
        for (i, &w) in words.iter().enumerate().take(MAX_WORDS) {
            f(pack(i as u64, w), sign);
        }
    }
}

/// The exact multiset difference between sent and received traffic, as sketch
/// elements with net frequencies.  This is the ground truth the sketches
/// estimate; it is exposed for tests and experiment instrumentation.
pub fn true_mismatch_elements(g: &Graph, sent: &Traffic, received: &Traffic) -> BTreeMap<u64, i64> {
    let mut freq: BTreeMap<u64, i64> = BTreeMap::new();
    let mut add = |el: u64, d: i64| {
        *freq.entry(el).or_insert(0) += d;
    };
    for arc in 0..g.arc_count() {
        let (s, r) = (sent.get_arc(arc), received.get_arc(arc));
        // An arc delivered verbatim streams every element once with +1 and
        // once with -1 (also under the 40-bit truncation), and elements
        // carry their arc, so it contributes nothing: only the ≤ 2f
        // mismatched arcs of a round reach the map.
        if s != r {
            stream_message(arc, s, 1, &mut add);
            stream_message(arc, r, -1, &mut add);
        }
    }
    freq.retain(|_, f| *f != 0);
    freq
}

/// Number of *ordered pairs* (arcs) whose message differs between two traffic
/// snapshots — the `B_j` quantity of Lemma 3.8.
pub fn mismatched_arc_count(g: &Graph, sent: &Traffic, received: &Traffic) -> usize {
    (0..g.arc_count())
        .filter(|&arc| sent.get_arc(arc) != received.get_arc(arc))
        .count()
}

/// Apply a list of correction elements to an estimate of the received traffic:
/// positive-frequency elements set words / lengths, negative-frequency elements
/// remove the receiver's spurious words.
pub fn apply_corrections(
    g: &Graph,
    estimate: &Traffic,
    corrections: &BTreeMap<u64, i64>,
) -> Traffic {
    // Build per-arc patch sets.
    let mut patches: BTreeMap<ArcId, Vec<(u64, u64, i64)>> = BTreeMap::new();
    for (&el, &f) in corrections {
        let (arc, idx, val) = unpack_element(el);
        patches.entry(arc).or_default().push((idx, val, f));
    }
    let mut out = estimate.clone();
    for (arc, patch) in patches {
        if arc >= g.arc_count() {
            continue;
        }
        let current: Vec<u64> = estimate
            .get_arc(arc)
            .map(<[u64]>::to_vec)
            .unwrap_or_default();
        // Determine the corrected length: positive length record wins; a purely
        // negative length record with no positive replacement means "no message".
        let mut length: Option<usize> = if estimate.get_arc(arc).is_some() {
            Some(current.len())
        } else {
            None
        };
        let mut words: BTreeMap<usize, u64> = current.iter().copied().enumerate().collect();
        let mut removed_entirely = false;
        for &(idx, val, f) in &patch {
            if idx == LEN_INDEX {
                if f > 0 {
                    length = Some(val as usize);
                } else if patch.iter().all(|&(i, _, pf)| i != LEN_INDEX || pf <= 0) {
                    removed_entirely = true;
                }
            } else if f > 0 {
                words.insert(idx as usize, val);
            } else {
                // Negative record: the receiver's word at this index was bogus;
                // drop it unless a positive record re-sets it.
                if !patch.iter().any(|&(i, _, pf)| i == idx && pf > 0) {
                    words.remove(&(idx as usize));
                }
            }
        }
        if removed_entirely && patch.iter().all(|&(i, _, f)| !(i == LEN_INDEX && f > 0)) {
            out.set_arc(arc, None);
            continue;
        }
        if let Some(len) = length {
            let rebuilt: Vec<u64> = (0..len).map(|i| *words.get(&i).unwrap_or(&0)).collect();
            out.set_arc(arc, Some(&rebuilt));
        }
    }
    out
}

/// Report of one correction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectionReport {
    /// Network rounds consumed.
    pub rounds: usize,
    /// Mismatched arcs before correction.
    pub mismatches_before: usize,
    /// Mismatched arcs after correction.
    pub mismatches_after: usize,
    /// Tree instances that failed during sketch aggregation.
    pub failed_trees: usize,
    /// For the ℓ0 variant: the `B_j` sequence (mismatch count after each iteration).
    pub decay: Vec<usize>,
}

/// Precomputed, topology-only state for the correction procedures over a fixed
/// `(graph, packing)` pair: per-tree spanning flags, the Lemma 3.3
/// [`SchedulePlan`], and the [`BroadcastContext`] over the packing's spanning
/// subset.
///
/// The byzantine compilers run a correction per simulated round, and each
/// correction used to redo `O(k·n)` spanning walks, an `O(k·m)` schedule scan
/// and a Vandermonde inversion.  All of that is a pure function of the graph
/// and the packing, so the compilers build this once — in `Compiler::prepare`,
/// where the campaign artifact cache shares it across every `(seed, adversary)`
/// cell of a grid.
///
/// # Panics
///
/// Construction panics if the packing is empty.
#[derive(Debug, Clone)]
pub struct CorrectionContext {
    /// Per tree of the *full* packing: does it span the graph?  (The voting
    /// rule deliberately ignores roots — a spanning tree aggregates sketches
    /// fine wherever it is rooted.)
    spanning: Vec<bool>,
    dtp: usize,
    eta: usize,
    plan: Arc<SchedulePlan>,
    /// Broadcast state over the spanning subset (Definition 7 guarantees
    /// `0.9k` spanning trees; weak packings fall back to the full packing).
    bcast: BroadcastContext,
}

impl CorrectionContext {
    /// Precompute the correction state for `packing` over `g`.
    pub fn new(g: &Graph, packing: &TreePacking) -> Self {
        let spanning: Vec<bool> = packing.trees.iter().map(|t| t.is_spanning(g)).collect();
        let plan = Arc::new(SchedulePlan::new(g, packing));
        let spanning_count = spanning.iter().filter(|&&s| s).count();
        // The broadcast runs over the spanning subset; when that is the whole
        // packing (or too small to use, so the full packing stands in) it
        // schedules exactly like the aggregation and shares its plan.
        let bcast = if spanning_count == packing.len() || spanning_count < 2 {
            BroadcastContext::with_plan(g, packing, Arc::clone(&plan))
        } else {
            let subset: Vec<RootedTree> = packing
                .trees
                .iter()
                .zip(&spanning)
                .filter(|&(_, &s)| s)
                .map(|(t, _)| t.clone())
                .collect();
            BroadcastContext::new(g, &TreePacking::new(subset))
        };
        CorrectionContext {
            spanning,
            dtp: packing.max_height().max(1),
            eta: plan.eta(),
            plan,
            bcast,
        }
    }

    /// The Lemma 3.3 plan of `(g, packing)` the aggregation schedules through.
    pub(crate) fn plan(&self) -> &SchedulePlan {
        &self.plan
    }
}

/// The `Õ(D_TP + f)` correction: per-tree `s`-sparse recovery + majority over
/// trees + one safe broadcast of the mismatch list.
///
/// `ctx` is the [`CorrectionContext`] of `(net.graph(), packing)`; `sent` is
/// the ground-truth traffic of the protected round (known piecewise to the
/// senders), `received` is what the adversary delivered.  Returns the
/// corrected received traffic and a report.
pub fn sparse_majority_correction(
    net: &mut Network,
    ctx: &CorrectionContext,
    packing: &TreePacking,
    sent: &Traffic,
    received: &Traffic,
    sparsity: usize,
    seed: u64,
) -> (Traffic, CorrectionReport) {
    let g = net.graph().clone();
    let start = net.round();
    let dtp = ctx.dtp;
    let k = packing.len();
    let mismatches_before = mismatched_arc_count(&g, sent, received);

    // Shared sketch randomness for this correction (broadcast by the root in
    // the real protocol; public once chosen, which is fine because the
    // adversary already committed its round-1 corruptions).
    let randomness = SketchRandomness::from_seed(seed ^ net.round() as u64);
    let sparsity = sparsity.max(4);

    // Fault-free per-tree result: the global sketch decode (aggregating every
    // node's local stream).  All trees compute the same ground truth; what
    // differs is whether their RS-compiled instance survived.
    let truth = true_mismatch_elements(&g, sent, received);
    let mut global = SparseRecovery::new(randomness, sparsity);
    for (&el, &f) in &truth {
        global.update(el, f);
    }
    net.tracer_mut().span_open(obs::Phase::Decode);
    let true_decode: Option<Vec<(u64, i64)>> = global.decode();
    net.tracer_mut().span_close(obs::Phase::Decode);

    // Aggregation cost per tree: D_TP hops, each carrying the (multi-word) sketch.
    let report = RsScheduler.run_planned(net, packing, &ctx.plan, dtp + sparsity);
    let failed_trees = k - report.success_count();

    // Collect per-tree lists at the root: surviving trees report the true
    // decode, failed trees report a coordinated adversarial list.  Only two
    // distinct lists can ever be reported, so the majority is a two-candidate
    // count rather than a map keyed by (cloned) lists.  Tie-breaking matches
    // the original map-based fold exactly: identical candidates merge into one
    // unanimous entry, and an even split goes to the lexicographically larger
    // list.
    let mut fake_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA_FE);
    let fake_list: Vec<(u64, i64)> = (0..sparsity.min(4))
        .map(|_| {
            let arc = fake_rng.gen_range(0..g.arc_count().max(1)) as ArcId;
            (
                pack_element(
                    arc.min((1 << 16) - 1),
                    0,
                    fake_rng.gen::<u64>() & MAX_WORD_VALUE,
                ),
                1,
            )
        })
        .collect();
    let true_list: Vec<(u64, i64)> = true_decode.unwrap_or_default();
    let mut true_votes = 0usize;
    let mut fake_votes = 0usize;
    for tr in &report.per_tree {
        if tr.ok && ctx.spanning[tr.tree] {
            true_votes += 1;
        } else {
            fake_votes += 1;
        }
    }
    let majority_list = if report.per_tree.is_empty() {
        Vec::new()
    } else if true_list == fake_list || true_votes > fake_votes {
        true_list
    } else if fake_votes > true_votes {
        fake_list
    } else {
        std::cmp::max(true_list, fake_list)
    };

    // Broadcast the correction list resiliently and apply it.  Weak packings may
    // contain non-spanning trees; those are useless for the broadcast, so the
    // broadcast runs over the spanning subset (Definition 7 guarantees 0.9k of
    // them), and transient scheduler failures are absorbed by a bounded retry.
    let mut corrections: BTreeMap<u64, i64> = BTreeMap::new();
    if !majority_list.is_empty() {
        let words: Vec<u64> = majority_list
            .iter()
            .flat_map(|&(el, f)| [el, f as u64])
            .collect();
        for attempt in 0..3 {
            let (per_node, bcast) =
                ecc_safe_broadcast(net, &ctx.bcast, &words, seed ^ 0xB0 ^ attempt);
            if let Some(decoded) = &per_node[0] {
                corrections.clear();
                for pair in decoded.chunks(2) {
                    if pair.len() == 2 {
                        corrections.insert(pair[0], pair[1] as i64);
                    }
                }
            }
            if bcast.unanimous {
                break;
            }
        }
    }
    let corrected = apply_corrections(&g, received, &corrections);
    let mismatches_after = mismatched_arc_count(&g, sent, &corrected);
    (
        corrected,
        CorrectionReport {
            rounds: net.round() - start,
            mismatches_before,
            mismatches_after,
            failed_trees,
            decay: vec![mismatches_before, mismatches_after],
        },
    )
}

/// The `Õ(D_TP)` correction: `O(log f)` iterations of per-tree ℓ0-sampling with
/// support thresholds (Algorithm `ImprovedMobileByznatineSim`, Steps 2–3),
/// through the [`CorrectionContext`] of `(net.graph(), packing)`.
///
/// Returns the corrected traffic and a report whose `decay` field records the
/// number of mismatched arcs after every iteration (the `B_j` of Lemma 3.8).
#[allow(clippy::too_many_arguments)]
pub fn l0_threshold_correction(
    net: &mut Network,
    ctx: &CorrectionContext,
    packing: &TreePacking,
    sent: &Traffic,
    received: &Traffic,
    f: usize,
    samplers_per_tree: usize,
    seed: u64,
) -> (Traffic, CorrectionReport) {
    let g = net.graph().clone();
    let start = net.round();
    let dtp = ctx.dtp;
    let k = packing.len();
    let eta = ctx.eta;
    let t = samplers_per_tree.max(2);
    let mismatches_before = mismatched_arc_count(&g, sent, received);
    let iterations = ((f.max(1) as f64).log2().ceil() as usize + 2).max(2);

    let mut estimate = received.clone();
    let mut decay = vec![mismatches_before];
    let mut total_failed = 0usize;
    let mut fake_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x10_77);

    for j in 1..=iterations {
        let truth = true_mismatch_elements(&g, sent, &estimate);
        if truth.is_empty() {
            decay.push(0);
            continue;
        }
        // Per-tree fault-free result: t independent ℓ0 samples of the current
        // mismatch multiset, from randomness derived per tree below.
        let randomness =
            SketchRandomness::from_seed(seed ^ ((j as u64) << 32) ^ net.round() as u64);

        let sched = RsScheduler.run_planned(net, packing, &ctx.plan, dtp + 2);
        let failed = k - sched.success_count();
        total_failed += failed;

        // Support counting across trees: surviving trees contribute honest
        // samples (re-drawn per tree via derived randomness), failed trees all
        // vote for the same fabricated mismatch (the worst case for thresholds).
        let fake_element = pack_element(
            fake_rng
                .gen_range(0..g.arc_count().max(1))
                .min((1 << 16) - 1),
            0,
            fake_rng.gen::<u64>() & MAX_WORD_VALUE,
        );
        let mut support: BTreeMap<u64, usize> = BTreeMap::new();
        for tr in &sched.per_tree {
            if tr.ok && ctx.spanning[tr.tree] {
                let tree_rand = SketchRandomness::from_seed(
                    randomness.seed() ^ (0x9E37 + tr.tree as u64).wrapping_mul(0x2545F4914F6CDD1D),
                );
                let mut tree_bank = L0SamplerBank::new(tree_rand, t);
                for (&el, &fq) in &truth {
                    tree_bank.update(el, fq);
                }
                for s in tree_bank.query_all() {
                    *support.entry(s).or_insert(0) += 1;
                }
            } else {
                *support.entry(fake_element).or_insert(0) += t;
            }
        }

        // Threshold Δ_j: fabricated mismatches can muster at most
        // `t · failure_bound` support; honest mismatches gather support from the
        // Ω(k) surviving trees once few mismatches remain.  We use the paper's
        // shape (growing geometrically in j) calibrated to the simulation scale.
        let failure_bound = RsScheduler::failure_bound(f, eta);
        let delta_j = (t * failure_bound + 1).max((t * k) >> (iterations + 2 - j).min(60));
        let dominating: BTreeMap<u64, i64> = support
            .into_iter()
            .filter(|&(_, s)| s >= delta_j)
            .map(|(el, _)| (el, *truth.get(&el).unwrap_or(&1)))
            .collect();

        // Broadcast the dominating mismatches and apply them.
        if !dominating.is_empty() {
            let words: Vec<u64> = dominating
                .iter()
                .flat_map(|(&el, &fq)| [el, fq as u64])
                .collect();
            for attempt in 0..2 {
                let (per_node, bcast) =
                    ecc_safe_broadcast(net, &ctx.bcast, &words, seed ^ (j as u64) ^ (attempt << 8));
                if let Some(decoded) = &per_node[0] {
                    let mut corrections = BTreeMap::new();
                    for pair in decoded.chunks(2) {
                        if pair.len() == 2 {
                            corrections.insert(pair[0], pair[1] as i64);
                        }
                    }
                    estimate = apply_corrections(&g, &estimate, &corrections);
                }
                if bcast.unanimous {
                    break;
                }
            }
        }
        decay.push(mismatched_arc_count(&g, sent, &estimate));
    }

    let mismatches_after = *decay.last().unwrap();
    (
        estimate,
        CorrectionReport {
            rounds: net.round() - start,
            mismatches_before,
            mismatches_after,
            failed_trees: total_failed,
            decay,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
    use netgraph::generators;
    use netgraph::tree_packing::star_packing;

    #[test]
    fn element_packing_roundtrip() {
        for (arc, idx, val) in [(0, 0, 0), (5, 3, 12345), (65535, 255, MAX_WORD_VALUE)] {
            let el = pack_element(arc, idx, val);
            assert_eq!(unpack_element(el), (arc, idx, val));
        }
    }

    #[test]
    #[should_panic]
    fn oversized_word_rejected() {
        let _ = pack_element(0, 0, 1 << 40);
    }

    #[test]
    fn sent_rounds_are_checked_against_the_element_layout() {
        let g = generators::path(2);
        let round = |words: Vec<u64>| traffic_with(&g, &[(0, 1, vec![1]), (1, 0, words)]);
        assert_eq!(
            check_packable(&round(vec![MAX_WORD_VALUE; MAX_WORDS])),
            Ok(())
        );
        assert_eq!(
            check_packable(&round(vec![7; MAX_WORDS + 1])),
            Err(UnpackableMessage::TooManyWords(MAX_WORDS + 1))
        );
        assert_eq!(
            check_packable(&round(vec![3, 1 << 40])),
            Err(UnpackableMessage::WordTooWide(1 << 40))
        );
    }

    fn traffic_with(g: &Graph, entries: &[(usize, usize, Vec<u64>)]) -> Traffic {
        let mut t = Traffic::new(g);
        for (u, v, p) in entries {
            t.send(g, *u, *v, p.clone());
        }
        t
    }

    #[test]
    fn true_mismatches_and_application() {
        let g = generators::complete(4);
        let sent = traffic_with(&g, &[(0, 1, vec![10, 20]), (2, 3, vec![7])]);
        // Received: (0,1) corrupted in word 1; (2,3) dropped; (1,2) fabricated.
        let received = traffic_with(&g, &[(0, 1, vec![10, 99]), (1, 2, vec![5])]);
        let truth = true_mismatch_elements(&g, &sent, &received);
        assert!(!truth.is_empty());
        assert_eq!(mismatched_arc_count(&g, &sent, &received), 3);
        let corrected = apply_corrections(&g, &received, &truth);
        assert!(
            corrected.agrees_with(&sent),
            "full truth must fully correct"
        );
        assert_eq!(mismatched_arc_count(&g, &sent, &corrected), 0);
    }

    /// The pre-skip `true_mismatch_elements`: stream every arc of both
    /// snapshots and let equal arcs cancel inside the map.
    fn true_mismatch_elements_unskipped(
        g: &Graph,
        sent: &Traffic,
        received: &Traffic,
    ) -> BTreeMap<u64, i64> {
        let mut freq: BTreeMap<u64, i64> = BTreeMap::new();
        let mut add = |el: u64, d: i64| *freq.entry(el).or_insert(0) += d;
        for arc in 0..g.arc_count() {
            stream_message(arc, sent.get_arc(arc), 1, &mut add);
            stream_message(arc, received.get_arc(arc), -1, &mut add);
        }
        freq.retain(|_, f| *f != 0);
        freq
    }

    proptest::proptest! {
        #[test]
        fn mismatch_only_stream_equals_the_full_fold(
            // Per arc: the sent message (none / empty / words) and how the
            // delivery differs from it.  Tiny word alphabet, so a corrupted
            // word often equals another arc's or index's honest one.
            arcs in proptest::prop::collection::vec(
                (0usize..4, 0u64..3, 0usize..6, proptest::any::<u64>()),
                12,
            ),
        ) {
            let g = generators::cycle(6);
            let (mut sent, mut received) = (Traffic::new(&g), Traffic::new(&g));
            for (arc, &(len, word, fate, garbage)) in arcs.iter().enumerate() {
                // len 0 = no message, 1 = empty payload, else len - 1 words.
                let payload: Option<Vec<u64>> = len.checked_sub(1).map(|w| vec![word; w]);
                sent.set_arc(arc, payload.as_deref());
                let delivered = match fate {
                    0 => None,                         // dropped (or still absent)
                    1 => Some(vec![]),                 // emptied (or fabricated empty)
                    2 => Some(vec![garbage, word]),    // > 40-bit garbage, new length
                    // Same low 40 bits as the honest word, different message.
                    3 => Some(vec![word | (garbage << 40); len.saturating_sub(1).max(1)]),
                    _ => payload,                      // delivered verbatim
                };
                received.set_arc(arc, delivered.as_deref());
            }
            proptest::prop_assert_eq!(
                true_mismatch_elements(&g, &sent, &received),
                true_mismatch_elements_unskipped(&g, &sent, &received)
            );
        }
    }

    #[test]
    fn all_spanning_packing_shares_one_plan_with_its_broadcast() {
        let g = generators::complete(8);
        let ctx = CorrectionContext::new(&g, &star_packing(&g, 0));
        assert!(ctx.bcast.shares_plan(&ctx.plan));
        // Drop a tree edge: tree 0 no longer spans, the broadcast runs over
        // the 7 others and needs a schedule of its own.
        let mut weak = star_packing(&g, 0);
        weak.trees[0].edges.pop();
        let last = (0..8).rev().find(|&v| weak.trees[0].parent[v].is_some());
        let v = last.expect("a non-root node");
        weak.trees[0].parent[v] = None;
        weak.trees[0].in_tree[v] = false;
        let ctx = CorrectionContext::new(&g, &weak);
        assert_eq!(ctx.spanning.iter().filter(|&&s| s).count(), 7);
        assert!(!ctx.bcast.shares_plan(&ctx.plan));
        assert_eq!(ctx.bcast.packing().len(), 7);
    }

    #[test]
    fn sparse_correction_fixes_mobile_corruption() {
        let g = generators::complete(16);
        let packing = star_packing(&g, 0);
        let ctx = CorrectionContext::new(&g, &packing);
        let f = 2;
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(f, 3)),
            CorruptionBudget::Mobile { f },
            3,
        );
        // Ground truth: every node sends its id+1 to every neighbour.
        let mut sent = Traffic::new(&g);
        for v in g.nodes() {
            for &(u, _) in g.neighbors(v) {
                sent.send(&g, v, u, vec![v as u64 + 1]);
            }
        }
        let received = net.exchange(sent.clone());
        let (corrected, report) =
            sparse_majority_correction(&mut net, &ctx, &packing, &sent, &received, 8 * f, 11);
        assert_eq!(
            report.mismatches_after, 0,
            "correction left mismatches: before={} after={}",
            report.mismatches_before, report.mismatches_after
        );
        assert!(corrected.agrees_with(&sent));
    }

    #[test]
    fn sparse_correction_noop_when_clean() {
        let g = generators::complete(8);
        let packing = star_packing(&g, 0);
        let ctx = CorrectionContext::new(&g, &packing);
        let mut net = Network::fault_free(g.clone());
        let sent = traffic_with(&g, &[(0, 1, vec![5]), (3, 2, vec![9, 9])]);
        let received = sent.clone();
        let (corrected, report) =
            sparse_majority_correction(&mut net, &ctx, &packing, &sent, &received, 8, 1);
        assert_eq!(report.mismatches_before, 0);
        assert_eq!(report.mismatches_after, 0);
        assert!(corrected.agrees_with(&sent));
    }

    /// Lemma 3.8 and its premise.  Every iteration's threshold `Δ_j` is at
    /// least `t·failure_bound(f, η) + 1`, the most support the failed trees
    /// can give a fabricated mismatch; an honest one gathers at most about
    /// `k·t/B` from `k` trees drawing `t` samples each over `B` mismatches.
    /// So the count decays (geometrically) only where `k·t/B` clears
    /// `t·failure_bound(f, η)`, and stays put where it does not — K20's star
    /// packing at `f = 2` and four mismatches is on that side.
    #[test]
    fn l0_threshold_correction_decays_mismatches() {
        let g = generators::complete(20);
        let packing = star_packing(&g, 0);
        let ctx = CorrectionContext::new(&g, &packing);
        let (k, eta, t) = (packing.len(), packing.load(&g), 8);
        for (f, net_seed, seed) in [(1usize, 5u64, 17u64), (1, 32, 41), (2, 33, 41)] {
            let mut net = Network::new(
                g.clone(),
                AdversaryRole::Byzantine,
                Box::new(RandomMobile::new(f, net_seed)),
                CorruptionBudget::Mobile { f },
                net_seed,
            );
            let mut sent = Traffic::new(&g);
            for v in g.nodes() {
                for &(u, _) in g.neighbors(v) {
                    sent.send(&g, v, u, vec![(v as u64) << 8 | u as u64]);
                }
            }
            let received = net.exchange(sent.clone());
            let (_, report) =
                l0_threshold_correction(&mut net, &ctx, &packing, &sent, &received, f, t, seed);
            let (first, last) = (report.decay[0], *report.decay.last().unwrap());
            assert_eq!(first, report.mismatches_before);
            assert!(first > 0, "f={f}: the adversary did not act");
            let premise = k * t > first * t * RsScheduler::failure_bound(f, eta);
            assert_eq!(premise, f == 1, "f={f}: B_0 = {first}");
            if premise {
                assert!(2 * last <= first, "f={f}: decay {:?}", report.decay);
            } else {
                assert!(
                    report.decay.iter().all(|&b| b == first),
                    "f={f}: decay {:?}",
                    report.decay
                );
            }
        }
    }
}
