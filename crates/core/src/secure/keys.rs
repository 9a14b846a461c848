//! Key-pool establishment against mobile eavesdroppers (Lemma A.1 /
//! phase 1 of Theorem 1.2).
//!
//! For `ℓ = r + t` rounds every ordered pair of neighbours exchanges fresh
//! random pads drawn from the senders' private randomness.  A mobile
//! eavesdropper controlling `f'` edges per round observes at most `f'·ℓ`
//! edge-rounds, so by averaging at most `⌊f'·ℓ/(t+1)⌋` edges are observed in
//! more than `t` rounds ("bad" edges).  For every other ("good") edge, applying
//! the Vandermonde bit extraction of Theorem 2.1 to the `ℓ` exchanged pads
//! yields `r` pads that are uniformly random *conditioned on everything the
//! adversary saw* — a perfect one-time-pad keystream for the second phase.
//!
//! Pads are exchanged and extracted in 16-bit chunks of the `GF(2^16)` field;
//! a keystream "round" consists of enough chunks to pad one full payload.
//! Each chunk is the low 16 bits of one `u64` draw of the sender's generator:
//! per exchange round a node draws its `deg · lanes` pads in one
//! [`ChaCha8Rng::fill_u64`] call, arc by arc in neighbour order.
//!
//! The exchange runs as the round engine's *pattern rounds*
//! ([`Network::pattern_rounds`]): every round has one shape — every arc
//! carries one message of `words_per_message` words — so it is one pattern,
//! and the words on an arc are its pad chunks, four to a word.  The pads
//! themselves are only written into a flat arc-major row of `arcs · lanes`
//! chunks; the engine packs the words of the `≤ 2f'` arcs the adversary
//! controls, for the view log, and settles the traffic volume in bulk, with
//! the same metrics, RNG draws and trace events as a round that sent every
//! pad on a `Traffic`.
//!
//! Extraction is *streamed*: each exchange round's row is folded into all
//! `r` protected rounds of the keystream by a multi-row multiply–accumulate
//! ([`BitExtractor::absorb`]), so the accumulator *is* the keystream.  The
//! fold takes two exchange rounds per pass over the keystream: an even
//! round's row is kept until the odd round after it is exchanged, and both
//! are absorbed in one call (a last even round of an odd `ℓ` goes alone).  So
//! one pad row outlives its round, and memory is the keystream plus two pad
//! rows, `O(r · arcs · lanes)`, never `O(ℓ · arcs · lanes)`.  Accumulation
//! is XOR, so the pairing leaves the keystream unchanged.

use coding::field::Field;
use coding::{BitExtractor, Gf2_16};
use congest_sim::network::{Network, RoundPatterns};
use netgraph::{ArcId, Graph};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// Number of 16-bit chunks in one 64-bit payload word.
const CHUNKS_PER_WORD: usize = 4;

/// The most exchange rounds one key schedule can condense: the number of
/// distinct non-zero evaluation points of GF(2^16).
const MAX_EXCHANGE_ROUNDS: usize = (1 << 16) - 1;

/// A payload message wider than a secure compiler was configured to protect:
/// what the compilers' `run` report where [`KeyPool::apply`], handed the
/// message, could only assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadTooWide {
    /// Width of the offending message, in words.
    pub observed: usize,
    /// The compiler's configured `words_per_message`.
    pub configured: usize,
}

impl std::fmt::Display for PayloadTooWide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the payload sent a {}-word message, wider than the configured words_per_message = {}",
            self.observed, self.configured
        )
    }
}

impl std::error::Error for PayloadTooWide {}

/// Why a secrecy compiler's key schedule cannot serve its payload: the
/// parameter rules that depend on the payload — its round count `r`, the
/// width of what it sends — so only the run can check them.  The compilers'
/// `run` return it; `CompilerDef` maps it to `ScenarioError::InvalidParameter`,
/// a skipped cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyScheduleError {
    /// `ℓ = r + t` exchange rounds need `ℓ` distinct non-zero evaluation
    /// points for the Theorem 2.1 extraction, and GF(2^16) has `2^16 − 1`.
    TooManyExchangeRounds {
        /// The protected rounds `r`.
        rounds: usize,
        /// The observation threshold `t`.
        threshold: usize,
    },
    /// The payload sent a message wider than the keystream provisioned per
    /// round.
    PayloadTooWide(PayloadTooWide),
}

impl From<PayloadTooWide> for KeyScheduleError {
    fn from(error: PayloadTooWide) -> Self {
        KeyScheduleError::PayloadTooWide(error)
    }
}

impl std::fmt::Display for KeyScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyScheduleError::TooManyExchangeRounds { rounds, threshold } => write!(
                f,
                "the key schedule needs r + t = {rounds} + {threshold} exchange rounds, \
                 past the {} distinct non-zero points of GF(2^16)",
                MAX_EXCHANGE_ROUNDS
            ),
            KeyScheduleError::PayloadTooWide(error) => error.fmt(f),
        }
    }
}

impl std::error::Error for KeyScheduleError {}

/// A per-arc one-time-pad keystream established by the two-phase exchange.
#[derive(Debug, Clone)]
pub struct KeyPool {
    /// The keystream, flat and round-major: the chunks of protected round
    /// `i` on arc `a` start at `(i · arcs + a) · chunks_per_round`.
    keystream: Vec<Gf2_16>,
    /// Number of protected rounds the keystream covers.
    rounds: usize,
    /// Number of arcs of the graph the pool was established on.
    arcs: usize,
    /// Chunks consumed per arc per protected message round.
    chunks_per_round: usize,
    /// Number of exchange rounds used in phase 1 (`ℓ = rounds + t`).
    exchange_rounds: usize,
    /// The observation threshold `t`.
    threshold: usize,
}

/// One exchange round's pad draw: graph, lanes per arc, the nodes'
/// generators, a scratch of at least `max_degree · lanes` draws and the
/// arc-major pads row.
type DrawPads = fn(&Graph, usize, &mut [ChaCha8Rng], &mut [u64], &mut [Gf2_16]);

/// One exchange round's pads.  Sender `v` draws its `deg(v) · lanes` `u64`s
/// in one [`ChaCha8Rng::fill_u64`] call; arc `v → u`, in neighbour order,
/// takes the next `lanes` of them — chunk `k` is the low 16 bits of draw
/// `k` — into its row of `pads`.
fn draw_pads(
    g: &Graph,
    lanes: usize,
    node_rngs: &mut [ChaCha8Rng],
    draws: &mut [u64],
    pads: &mut [Gf2_16],
) {
    let csr = g.csr();
    for (v, rng) in node_rngs.iter_mut().enumerate() {
        let out = csr.neighbors(v);
        let draws = &mut draws[..out.len() * lanes];
        rng.fill_u64(draws);
        for (entry, draws) in out.iter().zip(draws.chunks_exact(lanes)) {
            for (pad, &draw) in pads[entry.arc_out * lanes..][..lanes].iter_mut().zip(draws) {
                *pad = Gf2_16::from_u64(draw);
            }
        }
    }
}

/// The key exchange as the round engine's pattern description: one pattern,
/// every arc carrying `words` words, and in the round tagged `tag` those
/// words are the arc's pad chunks in row `tag % 2`, four to a word.  The
/// rows are written between rounds while a scope borrows the family, hence
/// the cells.
struct PadRounds {
    arcs: usize,
    words: usize,
    rows: [RefCell<Vec<Gf2_16>>; 2],
}

impl RoundPatterns for PadRounds {
    fn count(&self) -> usize {
        1
    }

    fn lens(&self, _: usize) -> impl Iterator<Item = (ArcId, usize)> + '_ {
        (0..self.arcs).map(|arc| (arc, self.words))
    }

    fn arc_len(&self, _: usize, arc: ArcId) -> Option<usize> {
        (arc < self.arcs).then_some(self.words)
    }

    fn arc_words(&self, _: usize, arc: ArcId, tag: u64, out: &mut Vec<u64>) -> bool {
        let lanes = self.words * CHUNKS_PER_WORD;
        let row = self.rows[(tag % 2) as usize].borrow();
        // Chunk `c` of a word is bits `16c ..` of it.
        out.extend(
            row[arc * lanes..][..lanes]
                .chunks_exact(CHUNKS_PER_WORD)
                .map(|chunks| {
                    chunks
                        .iter()
                        .rev()
                        .fold(0, |word, pad| word << 16 | pad.to_u64())
                }),
        );
        true
    }
}

impl KeyPool {
    /// Establish a keystream good for `rounds` protected rounds of messages of
    /// up to `words_per_message` words, resilient to eavesdroppers that observe
    /// any given edge in at most `t` of the exchange rounds.
    ///
    /// Runs `ℓ = rounds + t` network rounds (phase 1 of Theorem 1.2); every
    /// pad chunk is the low 16 bits of one `u64` draw of the sending node's
    /// generator ([`Network::node_rng`]), drawn in neighbour order.  The
    /// network's adversary is expected to be an eavesdropper; a byzantine
    /// adversary would additionally desynchronise the endpoints' keys, which is
    /// outside the threat model of the secure compilers.
    ///
    /// # Errors
    ///
    /// [`KeyScheduleError::TooManyExchangeRounds`] when `ℓ` exceeds the
    /// field's distinct evaluation points; no round has run then.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `words_per_message == 0`.
    pub fn establish(
        net: &mut Network,
        seed: u64,
        rounds: usize,
        words_per_message: usize,
        t: usize,
    ) -> Result<Self, KeyScheduleError> {
        Self::establish_by(net, seed, rounds, words_per_message, t, draw_pads)
    }

    /// [`KeyPool::establish`] with the pad draw of each exchange round
    /// passed in: [`draw_pads`], or the tests' per-draw oracle.
    fn establish_by(
        net: &mut Network,
        seed: u64,
        rounds: usize,
        words_per_message: usize,
        t: usize,
        draw: DrawPads,
    ) -> Result<Self, KeyScheduleError> {
        assert!(rounds > 0, "need at least one protected round");
        assert!(
            words_per_message > 0,
            "messages must have at least one word"
        );
        let exchange_rounds = rounds
            .checked_add(t)
            .filter(|&ell| ell <= MAX_EXCHANGE_ROUNDS)
            .ok_or(KeyScheduleError::TooManyExchangeRounds {
                rounds,
                threshold: t,
            })?;
        let g = net.graph().clone();
        net.tracer_mut().span_open(obs::Phase::KeySchedule);
        let chunks_per_round = words_per_message * CHUNKS_PER_WORD;
        let arcs = g.arc_count();
        let width = arcs * chunks_per_round;

        let extractor = BitExtractor::<Gf2_16>::new(exchange_rounds, t)
            .expect("ℓ = r + t was checked against the field above");
        let mut node_rngs: Vec<_> = g.nodes().map(|v| Network::node_rng(seed, v)).collect();
        let mut keystream = vec![Gf2_16::ZERO; rounds * width];
        // The pads of an even round and of the odd round after it, arc-major,
        // as known to BOTH endpoints (the sender generated them, the receiver
        // received them verbatim — the eavesdropper only listens).
        let pads = PadRounds {
            arcs,
            words: words_per_message,
            rows: [(); 2].map(|_| RefCell::new(vec![Gf2_16::ZERO; width])),
        };
        let mut draws = vec![0u64; g.max_degree() * chunks_per_round];
        let mut scope = net.pattern_rounds(&pads);
        for round in 0..exchange_rounds {
            draw(
                &g,
                chunks_per_round,
                &mut node_rngs,
                &mut draws,
                &mut pads.rows[round % 2].borrow_mut(),
            );
            scope.exchange(0, round as u64);
            // Condense on the fly, two rounds per pass: protected round i of
            // every arc and lane gains α_round^i times each round's pad
            // (Theorem 2.1).
            let rows = [0, 1].map(|i| pads.rows[i].borrow());
            let pending: &[(usize, &[Gf2_16])] = match round % 2 {
                1 => &[(round - 1, &rows[0]), (round, &rows[1])],
                _ if round + 1 == exchange_rounds => &[(round, &rows[0])],
                _ => continue,
            };
            extractor
                .absorb(pending, &mut keystream)
                .expect("the keystream block is sized for the extractor");
        }
        // Settles the exchange's traffic volume.
        drop(scope);
        net.tracer_mut().span_close(obs::Phase::KeySchedule);
        Ok(KeyPool {
            keystream,
            rounds,
            arcs,
            chunks_per_round,
            exchange_rounds,
            threshold: t,
        })
    }

    /// Number of phase-1 exchange rounds that were executed (`ℓ = r + t`).
    pub fn exchange_rounds(&self) -> usize {
        self.exchange_rounds
    }

    /// The observation threshold `t`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Maximum number of protected rounds the keystream supports.
    pub fn protected_rounds(&self) -> usize {
        self.rounds
    }

    /// The extracted key chunks of one arc for one protected round: lane `k`
    /// is the bit extraction of the `ℓ` pads exchanged in lane `k` of the arc.
    ///
    /// # Panics
    ///
    /// Panics if `round` exceeds the number of protected rounds or `arc` is
    /// not an arc of the graph.
    pub fn keystream(&self, arc: ArcId, round: usize) -> &[Gf2_16] {
        assert!(round < self.rounds, "keystream exhausted");
        assert!(arc < self.arcs, "arc {arc} out of range");
        &self.keystream[(round * self.arcs + arc) * self.chunks_per_round..]
            [..self.chunks_per_round]
    }

    /// Encrypt (or decrypt — XOR is an involution) a payload in place for the
    /// given arc and protected round.
    ///
    /// # Panics
    ///
    /// Panics if `round` exceeds the number of protected rounds or the payload
    /// is wider than the keystream provisioned per round.
    pub fn apply(&self, arc: ArcId, round: usize, payload: &mut [u64]) {
        assert!(
            payload.len() * CHUNKS_PER_WORD <= self.chunks_per_round,
            "payload wider than the provisioned keystream ({} words > words_per_message = {})",
            payload.len(),
            self.chunks_per_round / CHUNKS_PER_WORD
        );
        let key = self.keystream(arc, round);
        for (word, group) in payload.iter_mut().zip(key.chunks_exact(CHUNKS_PER_WORD)) {
            for (c, pad) in group.iter().enumerate() {
                *word ^= pad.to_u64() << (16 * c);
            }
        }
    }

    /// The number of "bad" edges guaranteed by the averaging argument of
    /// Theorem 1.2: `⌊f'·ℓ/(t+1)⌋` for an `f'`-mobile eavesdropper.
    pub fn bad_edge_bound(&self, f_mobile: usize) -> usize {
        (f_mobile * self.exchange_rounds) / (self.threshold + 1)
    }
}

#[cfg(test)]
impl KeyPool {
    /// Overwrite the key of `arc` in protected round `round`, so that
    /// [`KeyPool::apply`] XORs `key` into the leading words of a payload.
    pub(crate) fn set_key(&mut self, arc: ArcId, round: usize, key: &[u64]) {
        let start = (round * self.arcs + arc) * self.chunks_per_round;
        let chunks = &mut self.keystream[start..][..key.len() * CHUNKS_PER_WORD];
        for (group, &word) in chunks.chunks_exact_mut(CHUNKS_PER_WORD).zip(key) {
            for (c, chunk) in group.iter_mut().enumerate() {
                *chunk = Gf2_16::from_u64(word >> (16 * c));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::adversary::{
        AdversaryRole, AdversaryStrategy, CorruptionBudget, FixedEdges, GreedyHeaviest,
        RandomMobile, ScheduledEdges,
    };
    use congest_sim::scenario::matrix::graph_zoo_defs;
    use congest_sim::traffic::Traffic;
    use netgraph::{generators, EdgeId};
    use rand::{Rng, SeedableRng};

    /// The pad draw before bulk draws, kept as the oracle: one `gen` per
    /// chunk, arc by arc.
    fn draw_pads_by_gen(
        g: &Graph,
        lanes: usize,
        node_rngs: &mut [ChaCha8Rng],
        _draws: &mut [u64],
        pads: &mut [Gf2_16],
    ) {
        for (v, rng) in node_rngs.iter_mut().enumerate() {
            for &(u, e) in g.neighbors(v) {
                let arc = g.arc(e, v, u);
                for pad in &mut pads[arc * lanes..][..lanes] {
                    *pad = Gf2_16::from_u64(rng.gen());
                }
            }
        }
    }

    /// The exchange before pattern rounds, kept as the oracle: each round's
    /// pads (drawn per chunk) are packed into one message per arc on a
    /// `Traffic`, sent in a dense `exchange_in_place` round, and absorbed
    /// one round at a time.  Returns the keystream.
    fn dense_keystream(
        net: &mut Network,
        seed: u64,
        rounds: usize,
        words: usize,
        t: usize,
    ) -> Vec<Gf2_16> {
        let g = net.graph().clone();
        net.tracer_mut().span_open(obs::Phase::KeySchedule);
        let lanes = words * CHUNKS_PER_WORD;
        let extractor = BitExtractor::<Gf2_16>::new(rounds + t, t).unwrap();
        let mut node_rngs: Vec<_> = g.nodes().map(|v| Network::node_rng(seed, v)).collect();
        let mut keystream = vec![Gf2_16::ZERO; rounds * g.arc_count() * lanes];
        let mut pads = vec![Gf2_16::ZERO; g.arc_count() * lanes];
        let mut message = vec![0u64; words];
        let mut traffic = Traffic::new(&g);
        for round in 0..rounds + t {
            traffic.begin_round(&g);
            draw_pads_by_gen(&g, lanes, &mut node_rngs, &mut [], &mut pads);
            for (arc, lanes) in pads.chunks_exact(lanes).enumerate() {
                for (word, group) in message.iter_mut().zip(lanes.chunks_exact(CHUNKS_PER_WORD)) {
                    *word = 0;
                    for (c, pad) in group.iter().enumerate() {
                        *word |= pad.to_u64() << (16 * c);
                    }
                }
                traffic.set_arc(arc, Some(&message));
            }
            net.exchange_in_place(&mut traffic);
            extractor.absorb(&[(round, &pads)], &mut keystream).unwrap();
        }
        net.tracer_mut().span_close(obs::Phase::KeySchedule);
        keystream
    }

    /// The adversaries the pattern exchange is held to the dense one under:
    /// an eavesdropper on every edge (0), a `RandomMobile` eavesdropper (1)
    /// and a byzantine `GreedyHeaviest` (2), which ranks each `PatternId`
    /// once, so it sees one pattern id for the whole schedule.
    fn exchange_adversary(
        kind: usize,
        g: &Graph,
    ) -> (AdversaryRole, Box<dyn AdversaryStrategy>, CorruptionBudget) {
        let all: Vec<EdgeId> = (0..g.edge_count()).collect();
        match kind {
            0 => (
                AdversaryRole::Eavesdropper,
                Box::new(FixedEdges::new(all.clone())),
                CorruptionBudget::Static(all),
            ),
            1 => (
                AdversaryRole::Eavesdropper,
                Box::new(RandomMobile::new(2, 7)),
                CorruptionBudget::Mobile { f: 2 },
            ),
            _ => (
                AdversaryRole::Byzantine,
                Box::new(GreedyHeaviest::new(2)),
                CorruptionBudget::Mobile { f: 2 },
            ),
        }
    }

    /// The pattern exchange against the dense oracle on the zoo graphs at
    /// one to three words and an even and an odd `ℓ`, under each
    /// [`exchange_adversary`]: the same keystream, metrics, view log,
    /// corruption history, corruption-RNG position and trace events.
    #[test]
    fn pattern_exchange_equals_the_dense_exchange() {
        let (mut observed, mut altered) = (0, 0);
        for (case, def) in graph_zoo_defs(2024).iter().enumerate() {
            let g = def.build().expect("zoo graph builds");
            let seed = 0xBEEF + case as u64;
            for (words, t, kind) in (1..=3usize)
                .flat_map(|words| [1usize, 2].map(|t| (words, t)))
                .flat_map(|(words, t)| (0..3).map(move |kind| (words, t, kind)))
            {
                let [(pattern, mut pattern_net), (dense, mut dense_net)] =
                    [false, true].map(|dense| {
                        let (role, strategy, budget) = exchange_adversary(kind, &g);
                        let mut net = Network::new(g.clone(), role, strategy, budget, case as u64);
                        net.install_tracer(obs::TraceSpec::ring().build_tracer());
                        let keystream = if dense {
                            dense_keystream(&mut net, seed, 3, words, t)
                        } else {
                            let pool = KeyPool::establish(&mut net, seed, 3, words, t).unwrap();
                            pool.keystream
                        };
                        (keystream, net)
                    });
                let name = format!("{def:?}, {words} words, t {t}, adversary {kind}");
                assert_eq!(pattern, dense, "{name}");
                assert_eq!(pattern_net.metrics(), dense_net.metrics(), "{name}");
                assert_eq!(pattern_net.view_log(), dense_net.view_log(), "{name}");
                let histories = [&pattern_net, &dense_net].map(Network::corruption_history);
                assert_eq!(histories[0], histories[1], "{name}");
                let coins = [&mut pattern_net, &mut dense_net].map(Network::public_coin);
                assert_eq!(coins[0], coins[1], "{name}");
                let [pattern_trace, dense_trace] =
                    [&mut pattern_net, &mut dense_net].map(|net| net.take_tracer().finish());
                assert!(pattern_trace.events.len() >= 2 * (3 + t), "{name}");
                assert_eq!(pattern_trace.events, dense_trace.events, "{name}");
                assert_eq!(pattern_trace.stats, dense_trace.stats, "{name}");
                observed += pattern_net.view_log().len();
                altered += pattern_net.metrics().corrupted_messages;
            }
        }
        assert!(observed > 0 && altered > 0, "both roles must act");
    }

    /// Bulk draws against the per-draw oracle on the zoo graphs at one to
    /// three words (so some node's `deg · lanes` is no multiple of a
    /// refill, and fills start mid-buffer): the same pads round by round,
    /// then the same keystream and the same wire — an eavesdropper on every
    /// edge records both runs.
    #[test]
    fn bulk_pad_draws_equal_the_per_draw_oracle() {
        let mut ragged = false;
        for (case, def) in graph_zoo_defs(2024).iter().enumerate() {
            let g = def.build().expect("zoo graph builds");
            for words in 1..=3usize {
                let lanes = words * CHUNKS_PER_WORD;
                ragged |= g
                    .nodes()
                    .any(|v| !(g.degree(v) * lanes).is_multiple_of(128));
                let seed = 0xD1CE + case as u64;
                let mut rngs = [(); 2].map(|_| {
                    g.nodes()
                        .map(|v| Network::node_rng(seed, v))
                        .collect::<Vec<_>>()
                });
                let mut pads = [(); 2].map(|_| vec![Gf2_16::ZERO; g.arc_count() * lanes]);
                let mut draws = vec![0u64; g.max_degree() * lanes];
                for round in 0..5 {
                    for (i, draw) in [draw_pads as DrawPads, draw_pads_by_gen]
                        .into_iter()
                        .enumerate()
                    {
                        draw(&g, lanes, &mut rngs[i], &mut draws, &mut pads[i]);
                    }
                    assert_eq!(pads[0], pads[1], "{def:?}, {words} words, round {round}");
                }

                let all: Vec<usize> = (0..g.edge_count()).collect();
                let [(bulk, bulk_net), (oracle, oracle_net)] =
                    [draw_pads as DrawPads, draw_pads_by_gen].map(|draw| {
                        let mut net = Network::new(
                            g.clone(),
                            AdversaryRole::Eavesdropper,
                            Box::new(FixedEdges::new(all.clone())),
                            CorruptionBudget::Static(all.clone()),
                            case as u64,
                        );
                        let pool =
                            KeyPool::establish_by(&mut net, seed, 3, words, 2, draw).unwrap();
                        (pool, net)
                    });
                assert_eq!(bulk.keystream, oracle.keystream, "{def:?}, {words} words");
                let wire = |net: &Network| {
                    net.view_log()
                        .entries
                        .iter()
                        .map(|entry| (entry.edge, entry.forward.clone(), entry.backward.clone()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(wire(&bulk_net), wire(&oracle_net), "{def:?}, {words} words");
            }
        }
        assert!(ragged, "some fill must end mid-refill");
    }

    fn pool_on(g: Graph, rounds: usize, words: usize, t: usize) -> (KeyPool, Network) {
        let mut net = Network::new(
            g,
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(1, 5)),
            CorruptionBudget::Mobile { f: 1 },
            5,
        );
        let pool = KeyPool::establish(&mut net, 42, rounds, words, t).unwrap();
        (pool, net)
    }

    fn applied(pool: &KeyPool, arc: ArcId, round: usize, payload: &[u64]) -> Vec<u64> {
        let mut out = payload.to_vec();
        pool.apply(arc, round, &mut out);
        out
    }

    #[test]
    fn establishment_round_count_and_capacity() {
        let g = generators::cycle(5);
        let (pool, net) = pool_on(g, 3, 2, 4);
        assert_eq!(pool.exchange_rounds(), 7);
        assert_eq!(net.round(), 7);
        assert_eq!(pool.protected_rounds(), 3);
        assert_eq!(pool.bad_edge_bound(1), 7 / 5);
    }

    #[test]
    fn apply_is_an_involution_and_varies_per_round() {
        let g = generators::path(3);
        let (pool, _) = pool_on(g.clone(), 4, 2, 2);
        let arc = g.arc_between(0, 1).unwrap();
        let payload = vec![0xDEAD_BEEF_u64, 42];
        for round in 0..4 {
            let enc = applied(&pool, arc, round, &payload);
            assert_ne!(enc, payload, "encryption must change the payload (w.h.p.)");
            let dec = applied(&pool, arc, round, &enc);
            assert_eq!(dec, payload);
        }
        let e0 = applied(&pool, arc, 0, &payload);
        let e1 = applied(&pool, arc, 1, &payload);
        assert_ne!(e0, e1, "distinct rounds must use distinct pads");
    }

    #[test]
    fn different_arcs_have_independent_keys() {
        let g = generators::path(3);
        let (pool, _) = pool_on(g.clone(), 2, 1, 2);
        let a01 = g.arc_between(0, 1).unwrap();
        let a10 = g.arc_between(1, 0).unwrap();
        let a12 = g.arc_between(1, 2).unwrap();
        let payload = vec![0u64];
        let e01 = applied(&pool, a01, 0, &payload);
        let e10 = applied(&pool, a10, 0, &payload);
        let e12 = applied(&pool, a12, 0, &payload);
        assert!(e01 != e10 || e01 != e12, "keys should differ across arcs");
    }

    #[test]
    #[should_panic]
    fn keystream_exhaustion_panics() {
        let g = generators::path(2);
        let (pool, _) = pool_on(g.clone(), 2, 1, 1);
        let arc = g.arc_between(0, 1).unwrap();
        let _ = applied(&pool, arc, 2, &[1]);
    }

    #[test]
    #[should_panic(expected = "(3 words > words_per_message = 1)")]
    fn oversized_payload_panics() {
        let g = generators::path(2);
        let (pool, _) = pool_on(g.clone(), 2, 1, 1);
        let arc = g.arc_between(0, 1).unwrap();
        let _ = applied(&pool, arc, 0, &[1, 2, 3]);
    }

    #[test]
    fn a_key_schedule_past_the_field_is_a_typed_error_before_any_round() {
        let mut net = Network::new(
            generators::complete(4),
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(1, 5)),
            CorruptionBudget::Mobile { f: 1 },
            5,
        );
        for (rounds, t) in [(4, (1 << 16) - 4), (1, usize::MAX)] {
            let error = KeyPool::establish(&mut net, 42, rounds, 1, t).unwrap_err();
            assert_eq!(
                error,
                KeyScheduleError::TooManyExchangeRounds {
                    rounds,
                    threshold: t
                }
            );
            assert!(error.to_string().contains("GF(2^16)"), "{error}");
        }
        assert_eq!(net.round(), 0);
        // One round fewer is the largest schedule the field holds (on an
        // arcless graph, so its 65 535 rounds stay cheap).
        let (pool, net) = pool_on(Graph::new(2), 1, 1, MAX_EXCHANGE_ROUNDS - 1);
        assert_eq!(pool.exchange_rounds(), MAX_EXCHANGE_ROUNDS);
        assert_eq!(net.round(), MAX_EXCHANGE_ROUNDS);
    }

    #[test]
    fn an_arcless_graph_still_reports_its_protected_rounds() {
        let (pool, net) = pool_on(Graph::new(3), 4, 2, 1);
        assert_eq!(pool.protected_rounds(), 4);
        assert_eq!(net.round(), 5);
    }

    /// The streamed keystream against the Theorem 2.1 oracle.  An
    /// eavesdropper on every edge records every exchanged pad; condensing
    /// each arc's lanes with one `BitExtractor::extract` call per lane — the
    /// textbook form the streamed schedule replaced — must reproduce the
    /// pool's keystream chunk for chunk, for random graphs and parameters,
    /// and for one graph whose rows of `arcs · lanes` pads (K12 at four
    /// words: 2 112) span several tiles of the GF(2^16) rows kernel.
    #[test]
    fn streamed_keystream_equals_per_lane_extraction_of_the_recorded_pads() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED);
        for case in 0..25 {
            let n = rng.gen_range(2..9usize);
            let g = match case % 3 {
                _ if case == 24 => generators::complete(12),
                0 => generators::erdos_renyi(&mut rng, n, 0.6),
                1 => generators::cycle(n.max(3)),
                _ => generators::complete(n),
            };
            let rounds = rng.gen_range(1..6usize);
            let words = if case == 24 {
                4
            } else {
                rng.gen_range(1..6usize)
            };
            let t = rng.gen_range(0..7usize);
            let all: Vec<usize> = (0..g.edge_count()).collect();
            let mut net = Network::new(
                g.clone(),
                AdversaryRole::Eavesdropper,
                Box::new(FixedEdges::new(all.clone())),
                CorruptionBudget::Static(all),
                case,
            );
            let pool = KeyPool::establish(&mut net, rng.gen(), rounds, words, t).unwrap();
            assert_eq!(net.view_log().len(), (rounds + t) * g.edge_count());

            let lanes = words * CHUNKS_PER_WORD;
            // recorded[arc][lane][exchange round]
            let mut recorded = vec![vec![Vec::new(); lanes]; g.arc_count()];
            for entry in &net.view_log().entries {
                let (forward, backward) = Graph::arcs_of(entry.edge);
                for (arc, side) in [(forward, &entry.forward), (backward, &entry.backward)] {
                    let sent = side.as_ref().expect("every arc carries pads every round");
                    assert_eq!(sent.len(), words);
                    for (lane, column) in recorded[arc].iter_mut().enumerate() {
                        let word = sent[lane / CHUNKS_PER_WORD];
                        column.push(Gf2_16::from_u64(word >> (16 * (lane % CHUNKS_PER_WORD))));
                    }
                }
            }
            let extractor = BitExtractor::<Gf2_16>::new(rounds + t, t).unwrap();
            for (arc, columns) in recorded.iter().enumerate() {
                for (lane, column) in columns.iter().enumerate() {
                    let keys = extractor.extract(column).unwrap();
                    for (round, &key) in keys.iter().enumerate() {
                        assert_eq!(
                            pool.keystream(arc, round)[lane],
                            key,
                            "case {case}: arc {arc} lane {lane} round {round}"
                        );
                    }
                }
            }
        }
    }

    /// The structural security property: pads on edges the eavesdropper missed
    /// in (all but ≤ t) rounds are *not derivable* from its view.  We verify
    /// the mechanical precondition — the adversary's recorded view never
    /// contains more than `t` observations of a good edge — and that the
    /// keystream actually differs between two runs whose only difference is
    /// node randomness the adversary never saw.
    #[test]
    fn eavesdropper_misses_good_edges_keystreams() {
        let g = generators::cycle(6);
        let rounds = 3;
        let t = 6;
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(1, 9)),
            CorruptionBudget::Mobile { f: 1 },
            9,
        );
        let pool1 = KeyPool::establish(&mut net, 1, rounds, 1, t).unwrap();
        // Count observations per edge.
        let mut obs = vec![0usize; g.edge_count()];
        for entry in &net.view_log().entries {
            obs[entry.edge] += 1;
        }
        let bad: Vec<usize> = (0..g.edge_count()).filter(|&e| obs[e] > t).collect();
        assert!(bad.len() <= pool1.bad_edge_bound(1));
        // Re-run with different node randomness but the same adversary seed:
        // good-edge keystreams must differ (they depend on hidden randomness).
        let mut net2 = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(1, 9)),
            CorruptionBudget::Mobile { f: 1 },
            9,
        );
        let pool2 = KeyPool::establish(&mut net2, 2, rounds, 1, t).unwrap();
        let arc = g.arc_between(0, 1).unwrap();
        let p = vec![0u64];
        assert_ne!(
            applied(&pool1, arc, 0, &p),
            applied(&pool2, arc, 0, &p),
            "keystream must depend on private node randomness"
        );
    }

    /// Edges the network's recorded corruption history observed in more
    /// than `t` of its rounds: the bad edges of Theorem 1.2's averaging
    /// argument, once the history is exactly the `ℓ` exchange rounds.
    fn bad_edges(net: &Network, t: usize) -> usize {
        let mut seen = vec![0usize; net.graph().edge_count()];
        for round in net.corruption_history() {
            for &e in round {
                seen[e] += 1;
            }
        }
        seen.iter().filter(|&&n| n > t).count()
    }

    /// The averaging bound of Theorem 1.2, `⌊f·ℓ/(t+1)⌋`, against the edges
    /// an `f`-mobile eavesdropper really saw more than `t` times during the
    /// key exchange: never above it under random mobility, and met exactly
    /// by a schedule that spends all `f·ℓ` observations `t + 1` at a time.
    /// Observation `k = j·ℓ + r` (slot `j` of round `r`) goes to edge
    /// `⌊k/(t+1)⌋`; slots of one round are `ℓ ≥ t + 1` observations apart,
    /// so each round's `f` edges are distinct.
    #[test]
    fn bad_edges_stay_within_the_averaging_bound_and_a_schedule_meets_it() {
        let rounds = 3;
        for def in graph_zoo_defs(2024) {
            let g = def.build().expect("zoo graph builds");
            for f in 1..=3usize {
                for t in [1usize, 2, 4] {
                    let ell = rounds + t;
                    let schedule: Vec<Vec<EdgeId>> = (0..ell)
                        .map(|r| (0..f).map(|j| (j * ell + r) / (t + 1)).collect())
                        .collect();
                    assert!((f * ell).div_ceil(t + 1) <= g.edge_count());
                    for scheduled in [false, true] {
                        let strategy: Box<dyn AdversaryStrategy> = if scheduled {
                            Box::new(ScheduledEdges::new(schedule.clone()))
                        } else {
                            Box::new(RandomMobile::new(f, 11))
                        };
                        let mut net = Network::new(
                            g.clone(),
                            AdversaryRole::Eavesdropper,
                            strategy,
                            CorruptionBudget::Mobile { f },
                            11,
                        );
                        let pool = KeyPool::establish(&mut net, 3, rounds, 1, t).unwrap();
                        assert_eq!(net.corruption_history().len(), ell);
                        let (bad, bound) = (bad_edges(&net, t), pool.bad_edge_bound(f));
                        let case = format!("{def:?} f {f} t {t} scheduled {scheduled}");
                        assert!(bad <= bound, "{case}: {bad} bad edges > bound {bound}");
                        if scheduled {
                            assert_eq!(bad, bound, "{case}");
                        }
                    }
                }
            }
        }
    }
}
