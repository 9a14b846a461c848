//! Mobile-secure broadcast (Theorem A.4) and the congestion-sensitive secure
//! compiler (Theorem 1.3).
//!
//! **Broadcast.**  A source holds a `b`-word secret that every node must learn
//! while a mobile eavesdropper learns nothing.  The implementation follows the
//! paper's share-per-tree structure: the secret is XOR-split into `k` shares,
//! share `j` travels along tree `j` of a low-diameter tree packing, and every
//! share message is one-time-padded with keys established by a local secret
//! exchange (Lemma A.1).  Perfect secrecy holds as long as at least one tree
//! contains no "bad" edge (an edge whose pad the adversary pinned down), which
//! a packing with `k > η·f_bad` guarantees.  Nothing checks that condition on
//! a run: [`broadcast_packing`] sizes `k` for an assumed `η = 2`, and
//! [`broadcast_packing_is_sufficient`] is evaluated by its own test only (see
//! "Deviations from the paper" in `docs/ARCHITECTURE.md`).
//!
//! > **Substitution note** (see "Deviations from the paper" in
//! > `docs/ARCHITECTURE.md`): the paper's Θ(√(f·b·n)) landmark /
//! > fractional-tree-packing machinery is replaced by an integral greedy tree
//! > packing, so the round complexity here is `Õ(f·D + b)` rather than
//! > `Õ(D + √(f·b·n) + b)`; the security structure (share-per-tree + one-time
//! > pads from bit extraction) is the paper's.
//!
//! **Congestion-sensitive compiler.**  Theorem 1.3: any `cong`-congestion
//! algorithm is compiled by (1) a local secret exchange giving every edge `r`
//! keys, (2) a global secret exchange sharing a hash-function seed with all
//! nodes via the secure broadcast, and (3) a round-by-round simulation in which
//! real messages are sent as `(payload ‖ h*(payload)) ⊕ key` and silent edges
//! send fresh randomness, making real and dummy traffic indistinguishable.
//!
//! The simulation runs as the round engine's pattern rounds
//! ([`Network::pattern_rounds`]): one pattern, every arc carrying
//! `words + 2` words.  Only the arcs the adversary controls are ever framed,
//! tagged and padded, for its view or its rewrite.  Every other arc delivers
//! exactly what was sent, so its receiver gets the payload's own message; a
//! silent arc delivers its dummy words, which are decrypted and tag-checked
//! in full only when their decrypted length field is in range (a frame whose
//! length is out of range is never delivered, whatever its tag); and an arc
//! the adversary rewrote is decrypted and tag-checked as it arrived.  The
//! dummy words are still drawn for every silent arc, in node/neighbour
//! order, so the wire is that of sending every frame.

use crate::secure::keys::{KeyPool, KeyScheduleError, PayloadTooWide};
use coding::KWiseHash;
use congest_sim::network::{Network, RoundPatterns};
use congest_sim::traffic::{Output, Traffic};
use congest_sim::CongestAlgorithm;
use netgraph::tree_packing::{greedy_low_depth_packing, TreePacking};
use netgraph::{ArcId, Graph, NodeId};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// Report of a secure broadcast run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureBroadcastReport {
    /// Rounds spent establishing pads.
    pub key_rounds: usize,
    /// Rounds spent disseminating shares.
    pub dissemination_rounds: usize,
    /// Number of shares / trees used.
    pub shares: usize,
    /// Whether every node recovered the secret.
    pub all_recovered: bool,
}

/// The tree packing [`mobile_secure_broadcast`] shares its secret over: rooted
/// at `source`, with enough trees (`2f + 1`, at least 2, at most `n`) that `f`
/// bad edges cannot touch all of them.  A pure function of the graph, so a
/// caller running many broadcasts on one graph builds it once.
///
/// # Panics
///
/// Panics if the graph is disconnected.
pub fn broadcast_packing(g: &Graph, source: NodeId, f: usize) -> TreePacking {
    let eta_hint = 2;
    let k = f
        .saturating_mul(eta_hint)
        .saturating_add(1)
        .max(2)
        .min(g.node_count().max(2));
    greedy_low_depth_packing(g, source, k, eta_hint)
}

/// Mobile-secure broadcast of `secret` (a vector of words) from `source` to all
/// nodes, tolerating an `f`-mobile eavesdropper, over `packing` — the
/// [`broadcast_packing`] of the network's graph for this `source` and `f`.
///
/// Returns each node's recovered secret and a report.
///
/// # Errors
///
/// [`KeyScheduleError::TooManyExchangeRounds`], before any round, when the
/// pad exchange's `ℓ = k + 2·f·k` for the packing's `k` trees exceeds the
/// field.
///
/// # Panics
///
/// Panics if the secret is empty.
#[allow(clippy::type_complexity)]
pub fn mobile_secure_broadcast(
    net: &mut Network,
    source: NodeId,
    secret: &[u64],
    f: usize,
    seed: u64,
    packing: &TreePacking,
) -> Result<(Vec<Option<Vec<u64>>>, SecureBroadcastReport), KeyScheduleError> {
    assert!(!secret.is_empty(), "secret must be non-empty");
    let g = net.graph().clone();
    let n = g.node_count();
    let start = net.round();

    let eta = packing.load(&g).max(1);
    let k = packing.len();

    // Local secret exchange: enough pads for every tree edge to carry its share
    // of up to `secret.len()` words plus the share index, once per tree.
    let words = secret.len() + 1;
    // One keystream "round" per tree; t ≥ 2fr keeps all but f edges clean.
    let pad_rounds = k;
    let t_threshold = f.saturating_mul(2).saturating_mul(pad_rounds);
    let pool = KeyPool::establish(net, seed, pad_rounds, words, t_threshold)?;
    let key_rounds = net.round() - start;

    // Source splits the secret into k XOR shares (per word).
    let mut src_rng = Network::node_rng(seed ^ 0x5EC2E7, source);
    let mut shares: Vec<Vec<u64>> = (0..k - 1)
        .map(|_| (0..secret.len()).map(|_| src_rng.gen()).collect())
        .collect();
    let last: Vec<u64> = (0..secret.len())
        .map(|w| shares.iter().fold(secret[w], |a, s| a ^ s[w]))
        .collect();
    shares.push(last);

    // Disseminate share j down tree j, level by level, every hop encrypted with
    // the pad lane of tree j.  All trees proceed in parallel, staggered by the
    // packing load so no edge carries two messages in one round.
    let diss_start = net.round();
    let mut node_share: Vec<Vec<Option<Vec<u64>>>> = vec![vec![None; k]; n];
    for (j, share) in shares.iter().enumerate() {
        node_share[source][j] = Some(share.clone());
    }
    let depths: Vec<_> = packing.trees.iter().map(|tree| tree.depths()).collect();
    let children: Vec<_> = packing.trees.iter().map(|tree| tree.children()).collect();
    // Per-hop scratch, recycled across sub-rounds and levels.
    let mut traffic = Traffic::new(&g);
    let mut used_arcs = vec![false; g.arc_count()];
    let mut payload = vec![0u64; words];
    let mut pending: Vec<(usize, NodeId, NodeId)> = Vec::new();
    let mut deferred: Vec<(usize, NodeId, NodeId)> = Vec::new();
    let mut plan: Vec<(usize, ArcId, NodeId)> = Vec::new();
    let max_height = packing.max_height().max(1);
    for level in 0..max_height {
        // Collect every (tree, parent, child) transmission for this level, then
        // schedule them over as many sub-rounds as needed so that no arc carries
        // two different trees' messages in the same round (at most `eta`
        // sub-rounds by the load bound, but conflicts are resolved explicitly).
        pending.clear();
        for j in 0..k {
            for v in g.nodes() {
                if depths[j][v] == Some(level) && node_share[v][j].is_some() {
                    pending.extend(children[j][v].iter().map(|&c| (j, v, c)));
                }
            }
        }
        let mut guard = 0;
        while !pending.is_empty() && guard <= eta + k {
            guard += 1;
            traffic.begin_round(&g);
            used_arcs.fill(false);
            plan.clear();
            deferred.clear();
            for &(j, v, c) in &pending {
                let arc = g.arc_between(v, c).expect("tree edges are graph edges");
                if used_arcs[arc] {
                    deferred.push((j, v, c));
                    continue;
                }
                used_arcs[arc] = true;
                payload[0] = j as u64;
                payload[1..].copy_from_slice(node_share[v][j].as_ref().expect("checked above"));
                pool.apply(arc, j, &mut payload);
                traffic.set_arc(arc, Some(&payload));
                plan.push((j, arc, c));
            }
            std::mem::swap(&mut pending, &mut deferred);
            if plan.is_empty() {
                continue;
            }
            net.exchange_in_place(&mut traffic);
            for &(j, arc, c) in &plan {
                if let Some(msg) = traffic.arc_mut(arc) {
                    pool.apply(arc, j, msg);
                    if msg.first() == Some(&(j as u64)) {
                        node_share[c][j] = Some(msg[1..].to_vec());
                    }
                }
            }
        }
    }
    let dissemination_rounds = net.round() - diss_start;

    // Every node XORs the shares it holds; missing shares mean failure.
    let recovered: Vec<Option<Vec<u64>>> = (0..n)
        .map(|v| {
            if node_share[v].iter().all(|s| s.is_some()) {
                let mut acc = vec![0u64; secret.len()];
                for s in node_share[v].iter().flatten() {
                    for (w, word) in s.iter().enumerate() {
                        acc[w] ^= word;
                    }
                }
                Some(acc)
            } else {
                None
            }
        })
        .collect();
    let all_recovered = recovered.iter().all(|r| r.as_deref() == Some(secret));
    Ok((
        recovered,
        SecureBroadcastReport {
            key_rounds,
            dissemination_rounds,
            shares: k,
            all_recovered,
        },
    ))
}

/// Report of a congestion-sensitive secure compilation (Theorem 1.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureCompilerReport {
    /// Rounds of local secret exchange.
    pub local_key_rounds: usize,
    /// Rounds of global secret exchange (secure broadcast of the hash seed).
    pub global_key_rounds: usize,
    /// Rounds simulating the payload algorithm.
    pub simulation_rounds: usize,
    /// Congestion bound `cong` used for the parameters.
    pub congestion: usize,
}

/// The congestion-sensitive compiler with perfect mobile security (Theorem 1.3).
#[derive(Debug, Clone, Copy)]
pub struct CongestionSensitiveCompiler {
    /// The mobile eavesdropping bound `f` to defend against.
    pub f: usize,
    /// Maximum payload width of the protected algorithm, in words.
    pub words_per_message: usize,
    /// Seed for node-private randomness.
    pub seed: u64,
}

impl CongestionSensitiveCompiler {
    /// Create a compiler for an `f`-mobile eavesdropper.
    pub fn new(f: usize, words_per_message: usize, seed: u64) -> Self {
        CongestionSensitiveCompiler {
            f,
            words_per_message,
            seed,
        }
    }

    /// Run the compiled algorithm; the network's adversary should be an
    /// eavesdropper.  Every round of `A`, *every* edge carries a fixed-width
    /// message (real ones carry `(payload ‖ tag) ⊕ key`, silent ones carry fresh
    /// randomness), so the traffic pattern is input-independent.
    ///
    /// `packing` is the [`broadcast_packing`] of the network's graph for this
    /// `source` and `f`; the global secret exchange runs over it.
    ///
    /// # Errors
    ///
    /// [`KeyScheduleError::TooManyExchangeRounds`] when the local (`t = 2·f·r`)
    /// or the global (`t = 2·f·k`) secret exchange outgrows the field, before
    /// that exchange runs; [`KeyScheduleError::PayloadTooWide`] as soon as
    /// `alg` sends a message of more than `words_per_message` words.
    pub fn run<A: CongestAlgorithm + ?Sized>(
        &self,
        alg: &mut A,
        net: &mut Network,
        source: NodeId,
        packing: &TreePacking,
    ) -> Result<(Vec<Output>, SecureCompilerReport), KeyScheduleError> {
        let r = alg.rounds();
        let cong = alg.congestion_bound().unwrap_or(r);
        let secrets = self.exchange_secrets(net, source, r, cong, packing)?;
        let sim_start = net.round();
        self.simulate(alg, net, &secrets)?;
        Ok((
            alg.outputs(),
            SecureCompilerReport {
                local_key_rounds: secrets.local_key_rounds,
                global_key_rounds: secrets.global_key_rounds,
                simulation_rounds: net.round() - sim_start,
                congestion: cong,
            },
        ))
    }

    /// Steps 1 and 2 for a payload of `r` rounds and congestion `cong`.
    fn exchange_secrets(
        &self,
        net: &mut Network,
        source: NodeId,
        r: usize,
        cong: usize,
        packing: &TreePacking,
    ) -> Result<Secrets, KeyScheduleError> {
        let start = net.round();

        // Step 1: local secret exchange — r keystream rounds, width = length + payload + tag.
        let t = self.f.saturating_mul(2).saturating_mul(r);
        let pool = KeyPool::establish(net, self.seed, r, self.words_per_message + 2, t)?;
        let local_key_rounds = net.round() - start;

        // Step 2: global secret exchange — share the seed of a c-wise independent
        // hash family, c = Θ(f · cong).
        let global_start = net.round();
        let hash_seed: u64 = Network::node_rng(self.seed ^ 0x917E, source).gen();
        let (_, bcast_report) =
            mobile_secure_broadcast(net, source, &[hash_seed], self.f, self.seed ^ 0x22, packing)?;
        debug_assert!(bcast_report.all_recovered);
        let c = (4 * self.f * cong).max(2);
        Ok(Secrets {
            pool,
            tagger: KWiseHash::from_seed(hash_seed, c, u64::MAX),
            local_key_rounds,
            global_key_rounds: net.round() - global_start,
        })
    }

    /// Step 3: the round-by-round simulation, as pattern rounds (see
    /// [`FrameRounds`]).  An arc the adversary did not rewrite delivers
    /// exactly the frame that was sent, so its receiver gets the payload's
    /// own message, or nothing on a silent arc unless its dummy words open
    /// to a tagged frame; a rewritten arc is decrypted and tag-checked.
    fn simulate<A: CongestAlgorithm + ?Sized>(
        &self,
        alg: &mut A,
        net: &mut Network,
        secrets: &Secrets,
    ) -> Result<(), KeyScheduleError> {
        let g = net.graph().clone();
        let frames = FrameRounds {
            arcs: g.arc_count(),
            words: self.words_per_message,
            pool: &secrets.pool,
            tagger: &secrets.tagger,
            plain: RefCell::new(Traffic::new(&g)),
            silent: RefCell::new(Silent {
                arcs: Vec::new(),
                at: vec![0; g.arc_count()],
                dummies: Vec::new(),
            }),
        };
        let width = frames.width();
        let mut dummy_rng = Network::node_rng(self.seed ^ 0xD0_0D, 0);
        let mut msg = Vec::with_capacity(width);
        let mut scope = net.pattern_rounds(&frames);
        for round in 0..alg.rounds() {
            alg.send_into(round, &mut frames.plain.borrow_mut());
            frames.draw_dummies(&g, &mut dummy_rng)?;
            scope.exchange(0, round as u64);

            let mut inbox = frames.plain.borrow_mut();
            let silent = frames.silent.borrow();
            for (&arc, dummy) in silent.arcs.iter().zip(silent.dummies.chunks_exact(width)) {
                // Decrypt the length field alone: a frame whose length is out
                // of range can never be delivered, whatever its tag.
                let mut len = [dummy[0]];
                frames.pool.apply(arc, round, &mut len);
                if len[0] <= frames.words as u64 {
                    if let Some(payload) = frames.open(dummy, arc, round, &mut msg) {
                        inbox.set_arc(arc, Some(payload));
                    }
                }
            }
            for (arc, delivered) in scope.delivered().iter() {
                let opened = delivered.and_then(|words| frames.open(words, arc, round, &mut msg));
                inbox.set_arc(arc, opened);
            }
            alg.receive(round, &inbox);
        }
        Ok(())
    }
}

/// What steps 1 and 2 of Theorem 1.3 leave for the simulation.
struct Secrets {
    /// The per-arc keystream: one `length ‖ payload ‖ tag` frame per round.
    pool: KeyPool,
    /// The shared `c`-wise independent tag function.
    tagger: KWiseHash,
    local_key_rounds: usize,
    global_key_rounds: usize,
}

/// The silent arcs of one simulated round and their dummy words.
struct Silent {
    /// The silent arcs, in node/neighbour order.
    arcs: Vec<ArcId>,
    /// Per arc: where its dummy words start in `dummies`, if it is silent.
    at: Vec<usize>,
    /// `width` words per silent arc, in `arcs` order.
    dummies: Vec<u64>,
}

/// Theorem 1.3's simulated rounds as the round engine's pattern description:
/// one pattern, every arc carrying `words + 2` words.  In the round tagged
/// `round`, a real message goes out as `(length ‖ payload ‖ tag) ⊕ key` and a
/// silent arc sends its dummy words; [`RoundPatterns::arc_words`] builds that
/// frame only for the arcs the engine asks for, the controlled ones.  The
/// payload's traffic and the dummy words are written between rounds while a
/// scope borrows the family, hence the cells.
struct FrameRounds<'a> {
    arcs: usize,
    /// The payload width the compiler protects.
    words: usize,
    pool: &'a KeyPool,
    tagger: &'a KWiseHash,
    /// The payload's messages of the current round; after the exchange, what
    /// its receivers get.
    plain: RefCell<Traffic>,
    silent: RefCell<Silent>,
}

impl FrameRounds<'_> {
    /// Words per frame on the wire: length, payload, tag.
    fn width(&self) -> usize {
        self.words + 2
    }

    /// The tag of the frame `length ‖ payload` (zero-padded) on `arc` in
    /// `round`.
    fn tag(&self, framed: &[u64], arc: ArcId, round: usize) -> u64 {
        self.tagger
            .hash(mix_words(framed, arc as u64, round as u64))
    }

    /// Walk the arcs in node/neighbour order: refuse a message wider than
    /// the compiler protects, and draw `width` dummy words for every silent
    /// arc as it comes.
    fn draw_dummies(&self, g: &Graph, rng: &mut ChaCha8Rng) -> Result<(), PayloadTooWide> {
        let plain = self.plain.borrow();
        let silent = &mut *self.silent.borrow_mut();
        silent.arcs.clear();
        let csr = g.csr();
        for v in g.nodes() {
            for entry in csr.neighbors(v) {
                let arc = entry.arc_out;
                match plain.get_arc(arc) {
                    Some(p) if p.len() > self.words => {
                        return Err(PayloadTooWide {
                            observed: p.len(),
                            configured: self.words,
                        })
                    }
                    Some(_) => {}
                    None => {
                        silent.at[arc] = silent.arcs.len() * self.width();
                        silent.arcs.push(arc);
                    }
                }
            }
        }
        silent.dummies.resize(silent.arcs.len() * self.width(), 0);
        rng.fill_u64(&mut silent.dummies);
        Ok(())
    }

    /// Decrypt what arrived on `arc` in `round` into `msg` and return the
    /// payload it carries, if it is a frame whose length is in range and
    /// whose tag matches.
    fn open<'m>(
        &self,
        arrived: &[u64],
        arc: ArcId,
        round: usize,
        msg: &'m mut Vec<u64>,
    ) -> Option<&'m [u64]> {
        msg.clear();
        msg.extend_from_slice(arrived);
        self.pool.apply(arc, round, msg);
        let framed = self.words + 1;
        if msg.len() != self.width() || msg[0] > self.words as u64 {
            return None;
        }
        let len = msg[0] as usize;
        (msg[framed] == self.tag(&msg[..framed], arc, round)).then(|| &msg[1..=len])
    }
}

impl RoundPatterns for FrameRounds<'_> {
    const READS_DELIVERIES: bool = true;

    fn count(&self) -> usize {
        1
    }

    fn lens(&self, _: usize) -> impl Iterator<Item = (ArcId, usize)> + '_ {
        (0..self.arcs).map(|arc| (arc, self.width()))
    }

    fn arc_len(&self, _: usize, arc: ArcId) -> Option<usize> {
        (arc < self.arcs).then_some(self.width())
    }

    fn arc_words(&self, _: usize, arc: ArcId, tag: u64, out: &mut Vec<u64>) -> bool {
        let round = tag as usize;
        match self.plain.borrow().get_arc(arc) {
            Some(payload) => {
                out.push(payload.len() as u64);
                out.extend_from_slice(payload);
                out.resize(self.words + 1, 0);
                out.push(self.tag(out, arc, round));
                self.pool.apply(arc, round, out);
            }
            None => {
                let silent = self.silent.borrow();
                out.extend_from_slice(&silent.dummies[silent.at[arc]..][..self.width()]);
            }
        }
        true
    }
}

fn mix_words(words: &[u64], arc: u64, round: u64) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ arc.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = h.wrapping_add(round.wrapping_mul(0x94D0_49BB_1331_11EB));
    for &w in words {
        h ^= w;
        h = h.rotate_left(29).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    }
    h
}

/// Verify a tree packing is usable for the secure broadcast (at least one tree
/// avoids every set of `f` edges — equivalently `k > η·f`).
pub fn broadcast_packing_is_sufficient(
    packing: &TreePacking,
    g: &netgraph::Graph,
    f: usize,
) -> bool {
    packing.len() > packing.load(g) * f
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::{ConvergecastSum, FloodBroadcast, TokenDissemination};
    use congest_sim::adversary::{
        AdversaryRole, AdversaryStrategy, CorruptionBudget, CorruptionMode, EdgeSet, FixedEdges,
        GreedyHeaviest, RandomMobile, RoundView, SynthesizedSchedule,
    };
    use congest_sim::run_fault_free;
    use netgraph::{generators, EdgeId};

    fn eaves_net(g: netgraph::Graph, f: usize, seed: u64) -> Network {
        Network::new(
            g,
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(f, seed)),
            CorruptionBudget::Mobile { f },
            seed,
        )
    }

    /// Theorem A.4 with the substituted packing: `k = 2f + 1` shares, a pad
    /// exchange of `ℓ = k + 2·f·k` rounds (the `t ≥ 2·f·r` slack over one
    /// keystream round per tree), then at most `η` sub-rounds per tree level
    /// whatever the secret's width `b`.
    #[test]
    fn broadcast_reaches_everyone() {
        let g = generators::complete(8);
        let mut net = eaves_net(g.clone(), 2, 3);
        let secret = vec![0xAAAA_BBBB, 0x1234];
        let packing = broadcast_packing(&g, 0, 2);
        let (recovered, report) =
            mobile_secure_broadcast(&mut net, 0, &secret, 2, 17, &packing).unwrap();
        assert!(report.all_recovered, "not all nodes recovered the secret");
        for r in recovered {
            assert_eq!(r, Some(secret.clone()));
        }
        assert!(report.shares > 2 * 2);

        let g = generators::complete(14);
        for f in 1..=3usize {
            let packing = broadcast_packing(&g, 0, f);
            let k = packing.len();
            assert_eq!(k, 2 * f + 1);
            let mut dissemination = Vec::new();
            for b in [1usize, 4] {
                let secret: Vec<u64> = (0..b as u64).map(|i| 0xA000 + i).collect();
                let mut net = eaves_net(g.clone(), f, 3 + f as u64);
                let (_, report) =
                    mobile_secure_broadcast(&mut net, 0, &secret, f, 21, &packing).unwrap();
                assert!(report.all_recovered, "f={f} b={b}");
                assert_eq!(report.shares, k, "f={f} b={b}");
                assert_eq!(report.key_rounds, k + 2 * f * k, "f={f} b={b}");
                assert!(
                    report.dissemination_rounds <= packing.max_height() * packing.load(&g),
                    "f={f} b={b}"
                );
                dissemination.push(report.dissemination_rounds);
            }
            assert_eq!(
                dissemination[0], dissemination[1],
                "f={f}: independent of b"
            );
        }
    }

    #[test]
    fn broadcast_on_well_connected_sparse_graph() {
        let g = generators::circulant(12, 3);
        let mut net = eaves_net(g.clone(), 1, 4);
        let secret = vec![7u64];
        let packing = broadcast_packing(&g, 0, 1);
        let (_, report) = mobile_secure_broadcast(&mut net, 0, &secret, 1, 5, &packing).unwrap();
        assert!(report.all_recovered);
    }

    #[test]
    fn broadcast_secret_never_appears_in_view() {
        let g = generators::complete(7);
        let mut net = eaves_net(g.clone(), 2, 8);
        let secret = vec![0x5EC2_E700_0042u64];
        let packing = broadcast_packing(&g, 0, 2);
        let (_, report) = mobile_secure_broadcast(&mut net, 0, &secret, 2, 23, &packing).unwrap();
        assert!(report.all_recovered);
        for entry in &net.view_log().entries {
            for p in [&entry.forward, &entry.backward].into_iter().flatten() {
                assert!(!p.contains(&secret[0]), "secret word observed in the clear");
            }
        }
    }

    #[test]
    #[should_panic]
    fn broadcast_rejects_empty_secret() {
        let g = generators::complete(4);
        let packing = broadcast_packing(&g, 0, 1);
        let mut net = eaves_net(g, 1, 1);
        let _ = mobile_secure_broadcast(&mut net, 0, &[], 1, 1, &packing);
    }

    #[test]
    fn packing_sufficiency_check() {
        let g = generators::complete(8);
        let packing = netgraph::tree_packing::star_packing(&g, 0);
        assert!(broadcast_packing_is_sufficient(&packing, &g, 3));
        assert!(!broadcast_packing_is_sufficient(&packing, &g, 4));
    }

    #[test]
    fn congestion_compiler_preserves_outputs() {
        let g = generators::complete(6);
        let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 777));
        let compiler = CongestionSensitiveCompiler::new(1, 2, 31);
        let mut net = eaves_net(g.clone(), 1, 6);
        let (out, report) = compiler
            .run(
                &mut FloodBroadcast::new(g.clone(), 0, 777),
                &mut net,
                0,
                &broadcast_packing(&g, 0, 1),
            )
            .unwrap();
        assert_eq!(out, expected);
        assert!(report.simulation_rounds >= FloodBroadcast::new(g, 0, 777).rounds());
    }

    #[test]
    fn congestion_compiler_hides_traffic_pattern_and_payloads() {
        // With the compiler every edge carries the same-width message every
        // round, so the view has no silent edges and never the plaintext value.
        let g = generators::complete(5);
        let value = 0x0BAD_CAFE_u64;
        let compiler = CongestionSensitiveCompiler::new(1, 2, 5);
        let mut net = eaves_net(g.clone(), 1, 2);
        let (out, _) = compiler
            .run(
                &mut FloodBroadcast::new(g.clone(), 0, value),
                &mut net,
                0,
                &broadcast_packing(&g, 0, 1),
            )
            .unwrap();
        assert!(out.iter().all(|o| o == &vec![value]));
        for entry in &net.view_log().entries {
            for p in [&entry.forward, &entry.backward].into_iter().flatten() {
                assert!(!p.contains(&value), "payload leaked in the clear");
            }
        }
    }

    #[test]
    fn congestion_compiler_on_aggregation_payload() {
        let g = generators::complete(6);
        let inputs: Vec<u64> = (1..=6).collect();
        let expected = run_fault_free(&mut ConvergecastSum::new(g.clone(), 0, inputs.clone()));
        let compiler = CongestionSensitiveCompiler::new(1, 2, 77);
        let mut net = eaves_net(g.clone(), 1, 9);
        let (out, _) = compiler
            .run(
                &mut ConvergecastSum::new(g.clone(), 0, inputs),
                &mut net,
                0,
                &broadcast_packing(&g, 0, 1),
            )
            .unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn a_too_wide_payload_message_is_a_typed_error() {
        // Token dissemination at batch 2 sends 2-word messages from round 1.
        let g = generators::complete(5);
        let mut alg = TokenDissemination::new(g.clone(), (0..5).collect(), 2);
        let mut net = eaves_net(g.clone(), 1, 3);
        let error = CongestionSensitiveCompiler::new(1, 1, 9).run(
            &mut alg,
            &mut net,
            0,
            &broadcast_packing(&g, 0, 1),
        );
        assert_eq!(
            error.unwrap_err(),
            KeyScheduleError::PayloadTooWide(PayloadTooWide {
                observed: 2,
                configured: 1
            })
        );
    }

    /// `t = 2·f·k` for the broadcast's `k` trees: an `f` whose pad exchange
    /// outgrows GF(2^16) is a typed error before any round, not the `expect`
    /// in `KeyPool::establish`.
    #[test]
    fn a_broadcast_pad_exchange_past_the_field_is_a_typed_error() {
        let g = generators::complete(5);
        let f = 6554; // k = 5 trees: ℓ = 5 + 2·6554·5 = 65 545
        let packing = broadcast_packing(&g, 0, f);
        assert_eq!(packing.len(), 5);
        let mut net = eaves_net(g, 1, 4);
        let error = mobile_secure_broadcast(&mut net, 0, &[7], f, 5, &packing).unwrap_err();
        assert_eq!(
            error,
            KeyScheduleError::TooManyExchangeRounds {
                rounds: 5,
                threshold: 2 * f * 5
            }
        );
        assert_eq!(net.round(), 0);
    }

    /// Both of Theorem 1.3's exchanges can outgrow the field: the local one
    /// (`t = 2·f·r`) at a large `f`, and — for a one-round payload on a graph
    /// with more broadcast trees than rounds — the global one alone, after
    /// the local exchange ran.  Each is a typed error, not an `expect`.
    #[test]
    fn congestion_sensitive_exchanges_past_the_field_are_typed_errors() {
        let g = generators::complete(5);
        let run = |f: usize| {
            let mut alg = congest_sim::scenario::doctest_payload(g.clone());
            let r = alg.rounds();
            let mut net = eaves_net(g.clone(), 1, 2);
            let result = CongestionSensitiveCompiler::new(f, 1, 9).run(
                &mut alg,
                &mut net,
                0,
                &broadcast_packing(&g, 0, f),
            );
            (r, result.unwrap_err(), net.round())
        };
        let (r, error, rounds_run) = run(1 << 20);
        assert_eq!(
            error,
            KeyScheduleError::TooManyExchangeRounds {
                rounds: r,
                threshold: (2 * r) << 20
            }
        );
        assert_eq!(rounds_run, 0);
        // r = 1 and k = 5 trees: the local ℓ = 1 + 2·f fits, the global
        // ℓ = 5 + 10·f does not.
        let f = 6554;
        let (r, error, rounds_run) = run(f);
        assert_eq!(r, 1);
        assert_eq!(
            error,
            KeyScheduleError::TooManyExchangeRounds {
                rounds: 5,
                threshold: 2 * f * 5
            }
        );
        assert_eq!(rounds_run, 1 + 2 * f);
    }

    /// A payload wrapper that records which arcs each round delivered.
    struct Recorded<A> {
        inner: A,
        delivered: Vec<Vec<ArcId>>,
    }

    impl<A: CongestAlgorithm> CongestAlgorithm for Recorded<A> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn rounds(&self) -> usize {
            self.inner.rounds()
        }
        fn send_into(&mut self, round: usize, out: &mut Traffic) {
            self.inner.send_into(round, out)
        }
        fn receive(&mut self, round: usize, inbox: &Traffic) {
            self.delivered
                .push(inbox.iter_present().map(|(arc, _)| arc).collect());
            self.inner.receive(round, inbox)
        }
        fn outputs(&self) -> Vec<Output> {
            self.inner.outputs()
        }
        fn congestion_bound(&self) -> Option<usize> {
            self.inner.congestion_bound()
        }
    }

    /// The simulation before pattern rounds, kept as the oracle: every arc
    /// is framed (or filled with dummy words) on a `Traffic`, the real
    /// frames are tagged in one batch and padded, the round is sent dense,
    /// and every arc is decrypted and tag-checked on the way in.
    fn dense_simulation<A: CongestAlgorithm + ?Sized>(
        compiler: &CongestionSensitiveCompiler,
        alg: &mut A,
        net: &mut Network,
        secrets: &Secrets,
    ) -> Result<(), KeyScheduleError> {
        let g = net.graph().clone();
        let Secrets { pool, tagger, .. } = secrets;
        let words = compiler.words_per_message;
        let (framed, width) = (words + 1, words + 2);
        let mut dummy_rng = Network::node_rng(compiler.seed ^ 0xD0_0D, 0);
        let mut plain = Traffic::new(&g);
        let mut wire = Traffic::new(&g);
        let mut decrypted = Traffic::new(&g);
        let mut frame = vec![0u64; width];
        let (mut tagged, mut tags) = (Vec::new(), Vec::new());
        for round in 0..alg.rounds() {
            alg.send_into(round, &mut plain);
            wire.begin_round(&g);
            tagged.clear();
            tags.clear();
            for v in g.nodes() {
                for &(u, e) in g.neighbors(v) {
                    let arc = g.arc(e, v, u);
                    match plain.get_arc(arc) {
                        Some(p) => {
                            if p.len() > words {
                                return Err(PayloadTooWide {
                                    observed: p.len(),
                                    configured: words,
                                }
                                .into());
                            }
                            frame[0] = p.len() as u64;
                            frame[1..=p.len()].copy_from_slice(p);
                            frame[1 + p.len()..].fill(0);
                            tags.push(mix_words(&frame[..framed], arc as u64, round as u64));
                            tagged.push(arc);
                        }
                        None => frame.fill_with(|| dummy_rng.gen()),
                    }
                    wire.set_arc(arc, Some(&frame));
                }
            }
            tagger.hash_many(&mut tags);
            for (&arc, &tag) in tagged.iter().zip(&tags) {
                let body = wire.arc_mut(arc).expect("framed above");
                body[framed] = tag;
                pool.apply(arc, round, body);
            }
            net.exchange_in_place(&mut wire);

            tagged.clear();
            tags.clear();
            for arc in 0..g.arc_count() {
                if let Some(msg) = wire.arc_mut(arc) {
                    pool.apply(arc, round, msg);
                    if msg.len() == width {
                        tags.push(mix_words(&msg[..framed], arc as u64, round as u64));
                        tagged.push(arc);
                    }
                }
            }
            tagger.hash_many(&mut tags);
            decrypted.begin_round(&g);
            for (&arc, &expect) in tagged.iter().zip(&tags) {
                let msg = wire.get_arc(arc).expect("decrypted above");
                let len = msg[0] as usize;
                if msg[framed] == expect && len <= words {
                    decrypted.set_arc(arc, Some(&msg[1..=len]));
                }
            }
            alg.receive(round, &decrypted);
        }
        Ok(())
    }

    /// A strategy that controls nothing before round `from` and acts as
    /// `inner` from then on.
    struct After<S> {
        from: usize,
        inner: S,
    }

    impl<S: AdversaryStrategy> AdversaryStrategy for After<S> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn mark_edges(&mut self, round: usize, graph: &Graph, view: &RoundView, out: &mut EdgeSet) {
            if round >= self.from {
                self.inner.mark_edges(round, graph, view, out);
            }
        }
        fn corruption_mode(&self) -> CorruptionMode {
            self.inner.corruption_mode()
        }
    }

    /// One compiled run: the secret exchanges, `craft` applied to their
    /// keys, then the pattern simulation or the dense oracle.  Returns the
    /// outputs, the arcs delivered per simulated round, and the network.
    fn simulated<A: CongestAlgorithm>(
        compiler: &CongestionSensitiveCompiler,
        alg: A,
        mut net: Network,
        packing: &TreePacking,
        dense: bool,
        craft: impl Fn(&mut Secrets),
    ) -> (Vec<Output>, Vec<Vec<ArcId>>, Network) {
        let mut alg = Recorded {
            inner: alg,
            delivered: Vec::new(),
        };
        let (r, cong) = (alg.rounds(), alg.congestion_bound().unwrap_or(alg.rounds()));
        let mut secrets = compiler
            .exchange_secrets(&mut net, 0, r, cong, packing)
            .unwrap();
        craft(&mut secrets);
        let start = net.round();
        if dense {
            dense_simulation(compiler, &mut alg, &mut net, &secrets).unwrap();
        } else {
            compiler.simulate(&mut alg, &mut net, &secrets).unwrap();
        }
        assert_eq!(net.round() - start, r);
        (alg.outputs(), alg.delivered, net)
    }

    /// The pattern simulation against the dense oracle, under adversaries
    /// that watch or *tamper with* the simulation rounds: every edge, a
    /// `RandomMobile` and a `GreedyHeaviest` (which ranks each `PatternId`
    /// once) at `f = 2`, and a schedule sweeping three edges a round over
    /// all of them; each as an eavesdropper and as a byzantine adversary in
    /// the four corruption modes, on K6, K12, the 6×6 torus and
    /// expander(24,8).  Same outputs, same arcs delivered in every round,
    /// same view, metrics and trace events — and no frame a byzantine
    /// adversary rewrote is ever delivered.  (A byzantine adversary leaves
    /// the key exchanges alone: a corrupted share fails the seed broadcast,
    /// which is not what is under test.)
    #[test]
    fn pattern_simulation_equals_the_dense_simulation() {
        let graphs = [
            generators::complete(6),
            generators::complete(12),
            generators::torus(6, 6),
            generators::expander_d_regular(24, 8, 3),
        ];
        let compiler = CongestionSensitiveCompiler::new(1, 2, 0xB0B);
        let modes = [
            CorruptionMode::FlipLowBit,
            CorruptionMode::ReplaceRandom,
            CorruptionMode::Drop,
            CorruptionMode::Constant(0),
        ];
        let mut tampered = 0;
        for (case, g) in graphs.iter().enumerate() {
            let n = g.node_count() as u64;
            let packing = broadcast_packing(g, 0, 1);
            let payload = || {
                let tokens = (0..n).map(|v| 1000 + 7 * v).collect();
                TokenDissemination::new(g.clone(), tokens, 2)
            };
            let quiet = compiler
                .run(&mut payload(), &mut eaves_net(g.clone(), 0, 1), 0, &packing)
                .unwrap()
                .1;
            let key_rounds = quiet.local_key_rounds + quiet.global_key_rounds;
            let m = g.edge_count();
            let sweep: Vec<Vec<EdgeId>> = (0..key_rounds + quiet.simulation_rounds)
                .map(|round| {
                    let sim = round.saturating_sub(key_rounds);
                    (0..3).map(|i| (3 * sim + i) % m).collect()
                })
                .collect();
            for role in [AdversaryRole::Byzantine, AdversaryRole::Eavesdropper] {
                let tampers = role == AdversaryRole::Byzantine;
                let from = if tampers { key_rounds } else { 0 };
                // An eavesdropper ignores the mode.
                let modes = if tampers { &modes[..] } else { &modes[..1] };
                for (mode, kind) in modes
                    .iter()
                    .flat_map(|&mode| (0..4).map(move |kind| (mode, kind)))
                {
                    let adversary = || -> (Box<dyn AdversaryStrategy>, CorruptionBudget) {
                        match kind {
                            0 => (
                                Box::new(After {
                                    from,
                                    inner: FixedEdges::new((0..m).collect()).with_mode(mode),
                                }),
                                CorruptionBudget::Static((0..m).collect()),
                            ),
                            1 => (
                                Box::new(After {
                                    from,
                                    inner: RandomMobile::new(2, 5).with_mode(mode),
                                }),
                                CorruptionBudget::Mobile { f: 2 },
                            ),
                            2 => (
                                Box::new(After {
                                    from,
                                    inner: GreedyHeaviest::new(2).with_mode(mode),
                                }),
                                CorruptionBudget::Mobile { f: 2 },
                            ),
                            _ => (
                                Box::new(After {
                                    from,
                                    inner: SynthesizedSchedule::new(sweep.clone()).with_mode(mode),
                                }),
                                CorruptionBudget::Mobile { f: 3 },
                            ),
                        }
                    };
                    let [(out, delivered, mut net), (dense_out, dense_delivered, mut dense_net)] =
                        [false, true].map(|dense| {
                            let (strategy, budget) = adversary();
                            let mut net = Network::new(g.clone(), role, strategy, budget, 7);
                            net.install_tracer(obs::TraceSpec::ring().build_tracer());
                            simulated(&compiler, payload(), net, &packing, dense, |_| {})
                        });
                    let name = format!("graph {case} {role:?} {mode:?} adversary {kind}");
                    assert_eq!(out, dense_out, "{name}");
                    assert_eq!(delivered, dense_delivered, "{name}");
                    assert_eq!(
                        net.view_log().canonical(),
                        dense_net.view_log().canonical(),
                        "{name}"
                    );
                    assert_eq!(net.metrics(), dense_net.metrics(), "{name}");
                    let [trace, dense_trace] =
                        [&mut net, &mut dense_net].map(|net| net.take_tracer().finish());
                    assert!(!trace.events.is_empty(), "{name}");
                    assert_eq!(trace.events, dense_trace.events, "{name}");
                    assert_eq!(trace.stats, dense_trace.stats, "{name}");

                    assert_eq!(net.view_log().is_empty(), tampers, "{name}");
                    let mut controlled_arcs = 0;
                    for (round, arcs) in delivered.iter().enumerate() {
                        let controlled = net.corruption_history().round(key_rounds + round);
                        let touched = controlled.iter().flat_map(|&e| {
                            let (forward, backward) = Graph::arcs_of(e);
                            [forward, backward]
                        });
                        for arc in touched.filter(|_| tampers) {
                            assert!(!arcs.contains(&arc), "{name}: round {round}, arc {arc}");
                            controlled_arcs += 1;
                        }
                    }
                    tampered += controlled_arcs;
                    // Not vacuous: the untouched arcs do deliver.
                    if kind != 0 {
                        assert!(delivered.iter().map(Vec::len).sum::<usize>() > 60, "{name}");
                    }
                }
            }
        }
        assert!(tampered > 0, "the byzantine runs must rewrite arcs");
    }

    /// The rare branch: a silent arc whose dummy words decrypt to a length
    /// in range is delivered only through the full tag check.  Two silent
    /// arcs of the first simulated round get crafted keys — one so that its
    /// dummy words decrypt to a correctly tagged frame, one to a frame with
    /// a length in range and a wrong tag — and the pattern simulation must
    /// deliver the first (whose receiver adopts the forged value) and not
    /// the second, exactly as the dense oracle does.
    #[test]
    fn a_silent_arc_whose_length_is_in_range_runs_the_full_tag_check() {
        let g = generators::complete(6);
        let compiler = CongestionSensitiveCompiler::new(1, 2, 0x51E);
        let packing = broadcast_packing(&g, 0, 1);
        let (value, forged) = (0x7A1u64, 0xF0E6u64);
        let payload = || FloodBroadcast::new(g.clone(), 5, value);
        // The silent arcs of round 0 in node/neighbour order, each with its
        // receiver and the dummy words it draws.
        let mut first = Traffic::new(&g);
        payload().send_into(0, &mut first);
        let mut dummy_rng = Network::node_rng(compiler.seed ^ 0xD0_0D, 0);
        let silent: Vec<(ArcId, NodeId, Vec<u64>)> = g
            .nodes()
            .flat_map(|v| {
                g.csr()
                    .neighbors(v)
                    .iter()
                    .map(|entry| (entry.arc_out, entry.neighbor))
            })
            .filter(|&(arc, _)| first.get_arc(arc).is_none())
            .map(|(arc, to)| (arc, to, (0..4).map(|_| dummy_rng.gen()).collect()))
            .collect();
        let [(good, good_to, _), (bad, bad_to, _)] = [0, 1].map(|i| silent[i].clone());
        let craft = |secrets: &mut Secrets| {
            let mut frames = Vec::new();
            for (i, (arc, _, dummy)) in silent[..2].iter().enumerate() {
                let mut frame = vec![1, forged, 0];
                let tag = mix_words(&frame, *arc as u64, 0);
                frame.push(if i == 0 {
                    secrets.tagger.hash(tag)
                } else {
                    tag
                });
                let key: Vec<u64> = dummy.iter().zip(&frame).map(|(d, w)| d ^ w).collect();
                frames.push((*arc, key));
            }
            for (arc, key) in frames {
                secrets.pool.set_key(arc, 0, &key);
            }
        };
        let [(out, delivered, net), (dense_out, dense_delivered, dense_net)] =
            [false, true].map(|dense| {
                let net = eaves_net(g.clone(), 1, 3);
                simulated(&compiler, payload(), net, &packing, dense, craft)
            });
        assert_eq!(out, dense_out);
        assert_eq!(delivered, dense_delivered);
        assert_eq!(net.view_log().canonical(), dense_net.view_log().canonical());
        assert_eq!(net.metrics(), dense_net.metrics());
        assert!(delivered[0].contains(&good) && !delivered[0].contains(&bad));
        assert_eq!(out[good_to], vec![forged]);
        assert_eq!(out[bad_to], vec![value]);
    }
}
