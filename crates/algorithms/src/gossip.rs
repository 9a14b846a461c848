//! Token dissemination (gossip) and randomized colouring.
//!
//! `TokenDissemination` is the canonical *high-congestion* payload: every node
//! starts with a token and every node must learn every token.  On general
//! graphs it floods token sets for `Θ(D + n)` rounds; on the clique it
//! completes in a single round.  It exercises the congestion-sensitive
//! compiler's `cong` parameter (Theorem 1.3), and the CONGESTED CLIQUE row of
//! `tests/conformance.rs` (Theorem 1.6) uses it as the payload to protect.
//!
//! `RandomizedColoring` is a round-limited conflict-resolution payload whose
//! output validity (proper colouring) is easy to verify after compilation.

use congest_sim::network::Network;
use congest_sim::traffic::{Output, Traffic};
use congest_sim::CongestAlgorithm;
use netgraph::Graph;
use rand::Rng;

/// Every node starts with one token; every node must learn all tokens.
///
/// Each round every node forwards (up to `batch`) tokens it has not yet sent to
/// each neighbour.  Output per node: the sorted list of learned tokens.
#[derive(Debug, Clone)]
pub struct TokenDissemination {
    graph: Graph,
    tokens: Vec<u64>,
    rounds: usize,
    batch: usize,
    /// known[v] = tokens learned so far, in the order learned (what
    /// `send_into` forwards).
    known: Vec<Vec<u64>>,
    /// seen[v] = known[v], sorted: the membership test of `receive`.
    seen: Vec<Vec<u64>>,
    /// sent[v][u-index] = how many of v's known tokens were already sent to that neighbour.
    sent: Vec<Vec<usize>>,
}

impl TokenDissemination {
    /// Disseminate `tokens[v]` from every node `v`, forwarding at most `batch`
    /// tokens per edge per round.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or `tokens.len() != n`.
    pub fn new(graph: Graph, tokens: Vec<u64>, batch: usize) -> Self {
        let n = graph.node_count();
        assert_eq!(tokens.len(), n, "one token per node");
        let d = graph
            .diameter()
            .expect("TokenDissemination requires a connected graph");
        let batch = batch.max(1);
        // Every node must receive n-1 foreign tokens over each incident edge in
        // the worst case; D + ceil(n/batch) rounds suffice for flooding.
        let rounds = d + n.div_ceil(batch) + 1;
        let known: Vec<Vec<u64>> = tokens.iter().map(|&t| vec![t]).collect();
        let sent = (0..n).map(|v| vec![0usize; graph.degree(v)]).collect();
        TokenDissemination {
            graph,
            tokens,
            rounds,
            batch,
            seen: known.clone(),
            known,
            sent,
        }
    }

    /// Expected output: every node knows every token (sorted).
    pub fn expected_outputs(&self) -> Vec<Output> {
        let mut all = self.tokens.clone();
        all.sort_unstable();
        all.dedup();
        vec![all; self.graph.node_count()]
    }
}

impl CongestAlgorithm for TokenDissemination {
    fn name(&self) -> String {
        "token-dissemination".into()
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn send_into(&mut self, _round: usize, out: &mut Traffic) {
        out.begin_round(&self.graph);
        for v in self.graph.nodes() {
            for (ni, &(u, _)) in self.graph.neighbors(v).iter().enumerate() {
                let already = self.sent[v][ni];
                let end = (already + self.batch).min(self.known[v].len());
                if already < end {
                    self.sent[v][ni] = end;
                    out.send(&self.graph, v, u, &self.known[v][already..end]);
                }
            }
        }
    }

    fn receive(&mut self, _round: usize, inbox: &Traffic) {
        for v in self.graph.nodes() {
            for (_, payload) in inbox.inbox(&self.graph, v) {
                for &tok in payload {
                    if let Err(at) = self.seen[v].binary_search(&tok) {
                        self.seen[v].insert(at, tok);
                        self.known[v].push(tok);
                    }
                }
            }
        }
    }

    fn outputs(&self) -> Vec<Output> {
        self.seen.clone()
    }

    fn congestion_bound(&self) -> Option<usize> {
        Some(self.graph.node_count())
    }
}

/// Randomized (Δ+1)-colouring: every node repeatedly proposes a random colour
/// and keeps it if no undecided higher-degree-of-freedom neighbour proposed the
/// same colour in the same round.
///
/// Output per node: `[colour + 1]` once decided, `[0]` if still undecided when
/// the round budget runs out (rare for the default budget).
#[derive(Debug, Clone)]
pub struct RandomizedColoring {
    graph: Graph,
    palette: u64,
    rounds: usize,
    decided: Vec<Option<u64>>,
    proposal: Vec<u64>,
    rng_streams: Vec<rand_chacha::ChaCha8Rng>,
}

impl RandomizedColoring {
    /// Colour the graph with palette `{0, …, Δ}` using `rounds` proposal rounds
    /// and per-node randomness derived from `seed`.
    pub fn new(graph: Graph, rounds: usize, seed: u64) -> Self {
        let n = graph.node_count();
        let palette = graph.max_degree() as u64 + 1;
        let rng_streams = (0..n).map(|v| Network::node_rng(seed, v)).collect();
        RandomizedColoring {
            graph,
            palette,
            rounds: rounds.max(1),
            decided: vec![None; n],
            proposal: vec![0; n],
            rng_streams,
        }
    }

    /// Whether an output assignment is a proper colouring of all decided nodes.
    pub fn is_proper(&self, outputs: &[Output]) -> bool {
        for e in self.graph.edges() {
            let cu = outputs[e.u].first().copied().unwrap_or(0);
            let cv = outputs[e.v].first().copied().unwrap_or(0);
            if cu != 0 && cu == cv {
                return false;
            }
        }
        true
    }

    /// Fraction of nodes that decided a colour.
    pub fn decided_fraction(outputs: &[Output]) -> f64 {
        let decided = outputs
            .iter()
            .filter(|o| o.first().copied().unwrap_or(0) != 0)
            .count();
        decided as f64 / outputs.len().max(1) as f64
    }
}

impl CongestAlgorithm for RandomizedColoring {
    fn name(&self) -> String {
        "randomized-coloring".into()
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn send_into(&mut self, _round: usize, out: &mut Traffic) {
        out.begin_round(&self.graph);
        for v in self.graph.nodes() {
            let msg = match self.decided[v] {
                Some(c) => [1, c],
                None => {
                    self.proposal[v] = self.rng_streams[v].gen_range(0..self.palette);
                    [0, self.proposal[v]]
                }
            };
            for &(u, _) in self.graph.neighbors(v) {
                out.send(&self.graph, v, u, msg);
            }
        }
    }

    fn receive(&mut self, _round: usize, inbox: &Traffic) {
        for v in self.graph.nodes() {
            if self.decided[v].is_some() {
                continue;
            }
            let mut conflict = false;
            for (from, payload) in inbox.inbox(&self.graph, v) {
                let (is_final, colour) = (
                    payload.first().copied().unwrap_or(0),
                    payload.get(1).copied().unwrap_or(u64::MAX),
                );
                if colour == self.proposal[v] && (is_final == 1 || from < v) {
                    conflict = true;
                }
            }
            if !conflict {
                self.decided[v] = Some(self.proposal[v]);
            }
        }
    }

    fn outputs(&self) -> Vec<Output> {
        self.decided
            .iter()
            .map(|d| vec![d.map(|c| c + 1).unwrap_or(0)])
            .collect()
    }

    fn congestion_bound(&self) -> Option<usize> {
        Some(2 * self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::run_fault_free;
    use netgraph::generators;

    #[test]
    fn dissemination_on_cycle_and_clique() {
        for g in [
            generators::cycle(7),
            generators::complete(6),
            generators::grid(2, 4),
        ] {
            let n = g.node_count();
            let tokens: Vec<u64> = (0..n as u64).map(|v| 1000 + v).collect();
            let mut alg = TokenDissemination::new(g, tokens, 2);
            let expect = alg.expected_outputs();
            let out = run_fault_free(&mut alg);
            assert_eq!(out, expect);
        }
    }

    /// A node forwards tokens in the order it first learned them, and takes
    /// a repeated or unsorted (say, byzantine) delivery once per token.
    #[test]
    fn receive_keeps_the_learned_order_and_drops_repeats() {
        let g = generators::path(3);
        let mut alg = TokenDissemination::new(g.clone(), vec![5, 7, 2], 8);
        let mut inbox = Traffic::new(&g);
        inbox.send(&g, 1, 0, [9, 5, 3, 9, 1, 3]);
        alg.receive(0, &inbox);
        assert_eq!(alg.known[0], [5, 9, 3, 1]);
        let mut out = Traffic::new(&g);
        alg.send_into(1, &mut out);
        assert_eq!(out.get(&g, 0, 1), Some(&[5, 9, 3, 1][..]));
        assert_eq!(alg.outputs()[0], [1, 3, 5, 9]);
    }

    #[test]
    fn clique_dissemination_with_full_batch_is_fast() {
        let g = generators::complete(8);
        let tokens: Vec<u64> = (0..8).collect();
        let alg = TokenDissemination::new(g, tokens, 8);
        assert!(alg.rounds() <= 3);
    }

    #[test]
    #[should_panic]
    fn dissemination_requires_one_token_per_node() {
        let g = generators::path(3);
        let _ = TokenDissemination::new(g, vec![1], 1);
    }

    #[test]
    fn coloring_is_proper_on_various_graphs() {
        for (i, g) in [
            generators::cycle(9),
            generators::complete(6),
            generators::grid(4, 4),
            generators::hypercube(4),
        ]
        .into_iter()
        .enumerate()
        {
            let mut alg = RandomizedColoring::new(g, 30, 42 + i as u64);
            let out = run_fault_free(&mut alg);
            assert!(alg.is_proper(&out), "improper colouring on graph {i}");
            assert!(
                RandomizedColoring::decided_fraction(&out) > 0.95,
                "too many undecided nodes on graph {i}"
            );
        }
    }

    #[test]
    fn coloring_uses_at_most_delta_plus_one_colors() {
        let g = generators::complete(5);
        let mut alg = RandomizedColoring::new(g.clone(), 40, 7);
        let out = run_fault_free(&mut alg);
        for o in &out {
            let c = o[0];
            assert!(c >= 1 && c <= g.max_degree() as u64 + 1);
        }
    }
}
