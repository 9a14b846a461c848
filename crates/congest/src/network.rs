//! The round-synchronous network with adversary interposition.
//!
//! A [`Network`] owns the communication graph, an adversary (role + strategy +
//! budget) and the execution metrics.  Protocols drive it through
//! [`Network::exchange`] (or the buffer-reusing
//! [`Network::exchange_in_place`]): they hand over the round's outgoing
//! [`Traffic`], the adversary picks the edges it controls (within its budget),
//! either records or rewrites the traffic on those edges, and the resulting
//! traffic is what the receiving nodes observe.
//!
//! The network also keeps the **corruption history** (which edges were
//! controlled in which round) and, for eavesdroppers, the **view log** (what
//! the adversary saw).  The first feeds the interactive-coding oracle of
//! Theorem 3.2; the second feeds the perfect-security experiments.
//!
//! # The zero-allocation round engine
//!
//! `exchange_in_place` is the hot path: the adversary marks its wanted edges
//! into a recycled [`EdgeSet`], the budget clamp writes into a recycled
//! `controlled` vector, byzantine rewrites go through a recycled scratch
//! payload buffer straight into the flat [`Traffic`] arena, and the history
//! appends to a flattened [`CorruptionHistory`].  After warm-up, a round
//! executes without touching the allocator (covered by a buffer-reuse
//! regression test).

use crate::adversary::{AdversaryRole, AdversaryStrategy, CorruptionBudget, EdgeSet, NoAdversary};
use crate::metrics::Metrics;
use crate::traffic::{Payload, Traffic};
use netgraph::{EdgeId, Graph};
use obs::{EventKind, Phase, Tracer};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// One observation made by an eavesdropper: both directions of one edge in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewEntry {
    /// The round in which the observation was made.
    pub round: usize,
    /// The observed edge.
    pub edge: EdgeId,
    /// Payload flowing from the edge's smaller endpoint to the larger one.
    pub forward: Option<Payload>,
    /// Payload flowing from the larger endpoint to the smaller one.
    pub backward: Option<Payload>,
}

/// Everything the eavesdropper saw during an execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewLog {
    /// Observations in chronological order.
    pub entries: Vec<ViewEntry>,
}

impl ViewLog {
    /// A canonical flattening of the view, suitable for comparing the
    /// distribution of views across executions (perfect security states the
    /// distributions must be identical for any two inputs).
    pub fn canonical(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for e in &self.entries {
            out.push(e.round as u64);
            out.push(e.edge as u64);
            for side in [&e.forward, &e.backward] {
                match side {
                    Some(p) => {
                        out.push(1 + p.len() as u64);
                        out.extend_from_slice(p);
                    }
                    None => out.push(0),
                }
            }
        }
        out
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Which edges the adversary controlled in each executed round, stored
/// flattened (one shared edge vector plus per-round bounds) so recording a
/// round is an amortised append instead of a fresh `Vec` per round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionHistory {
    edges: Vec<EdgeId>,
    /// `bounds[r]` = end offset of round `r` in `edges`.
    bounds: Vec<usize>,
}

impl CorruptionHistory {
    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether no round has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The edges controlled in round `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn round(&self, r: usize) -> &[EdgeId] {
        let start = if r == 0 { 0 } else { self.bounds[r - 1] };
        &self.edges[start..self.bounds[r]]
    }

    /// The most recent round's controlled edges.
    pub fn last(&self) -> Option<&[EdgeId]> {
        (!self.bounds.is_empty()).then(|| self.round(self.bounds.len() - 1))
    }

    /// Iterate the controlled-edge list of every round in order.
    pub fn iter(&self) -> impl Iterator<Item = &[EdgeId]> + '_ {
        (0..self.len()).map(|r| self.round(r))
    }

    /// Total number of controlled edge-rounds.
    pub fn total_edge_rounds(&self) -> usize {
        self.edges.len()
    }

    fn push_round(&mut self, edges: &[EdgeId]) {
        self.edges.extend_from_slice(edges);
        self.bounds.push(self.edges.len());
    }
}

impl std::ops::Index<usize> for CorruptionHistory {
    type Output = [EdgeId];
    fn index(&self, r: usize) -> &[EdgeId] {
        self.round(r)
    }
}

impl<'a> IntoIterator for &'a CorruptionHistory {
    type Item = &'a [EdgeId];
    type IntoIter = Box<dyn Iterator<Item = &'a [EdgeId]> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Recycled per-round scratch space of the engine (see the module docs).
#[derive(Debug, Default)]
struct RoundBuffers {
    /// Edges the strategy marked this round.
    wanted: EdgeSet,
    /// The budget-clamped controlled set, in request order.
    controlled: Vec<EdgeId>,
    /// Replacement-payload scratch for in-place corruption.
    scratch: Vec<u64>,
}

/// The round-synchronous network simulator.
pub struct Network {
    /// Shared, never mutated: compilers that need the graph beside a
    /// `&mut Network` take a handle ([`Network::shared_graph`]) instead of a
    /// deep copy.
    graph: Arc<Graph>,
    role: AdversaryRole,
    strategy: Box<dyn AdversaryStrategy>,
    budget: CorruptionBudget,
    metrics: Metrics,
    view_log: ViewLog,
    corruption_history: CorruptionHistory,
    budget_spent: usize,
    bandwidth_words: usize,
    corruption_rng: ChaCha8Rng,
    run_seed: u64,
    buffers: RoundBuffers,
    tracer: Tracer,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("role", &self.role)
            .field("strategy", &self.strategy.name())
            .field("budget", &self.budget)
            .field("rounds", &self.metrics.rounds)
            .finish()
    }
}

impl Network {
    /// A fault-free network over `graph`.
    pub fn fault_free(graph: impl Into<Arc<Graph>>) -> Self {
        Network::new(
            graph,
            AdversaryRole::Byzantine,
            Box::new(NoAdversary),
            CorruptionBudget::None,
            0,
        )
    }

    /// A network with the given adversary configuration.
    ///
    /// `seed` drives the randomness the adversary uses when fabricating
    /// corrupted payloads (the nodes' randomness is separate and never exposed
    /// to the adversary).
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        role: AdversaryRole,
        strategy: Box<dyn AdversaryStrategy>,
        budget: CorruptionBudget,
        seed: u64,
    ) -> Self {
        let graph = graph.into();
        let metrics = Metrics::new(&graph);
        Network {
            graph,
            role,
            strategy,
            budget,
            metrics,
            view_log: ViewLog::default(),
            corruption_history: CorruptionHistory::default(),
            budget_spent: 0,
            bandwidth_words: 2,
            corruption_rng: ChaCha8Rng::seed_from_u64(seed ^ 0xAD5E_55A7),
            run_seed: seed,
            buffers: RoundBuffers::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Install a tracer (replacing the default disabled one).  All subsequent
    /// rounds emit `RoundExchange` spans and corruption point events into it.
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The network's tracer (disabled by default — every call on it is a
    /// single-branch no-op).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Remove the tracer for harvesting, leaving a disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// The seed this network was constructed with.  Deterministic executors
    /// (the async runtime's latency/jitter hashing) derive their per-message
    /// randomness from it without touching [`Network::public_coin`]'s RNG —
    /// drawing from that stream would perturb the adversary's corruption
    /// randomness and break lockstep/async parity.
    pub fn run_seed(&self) -> u64 {
        self.run_seed
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A handle on the communication graph that does not borrow the network
    /// (a reference-count bump, not a copy of the adjacency lists).
    pub fn shared_graph(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// The adversary's role (eavesdropper or byzantine).
    pub fn role(&self) -> AdversaryRole {
        self.role
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of communication rounds executed so far.
    pub fn round(&self) -> usize {
        self.metrics.rounds
    }

    /// The eavesdropper's view (empty unless the role is `Eavesdropper`).
    pub fn view_log(&self) -> &ViewLog {
        &self.view_log
    }

    /// Which edges were controlled in each executed round.
    pub fn corruption_history(&self) -> &CorruptionHistory {
        &self.corruption_history
    }

    /// The adversary strategy's display name.
    pub fn adversary_name(&self) -> String {
        self.strategy.name()
    }

    /// Allocated capacity of the engine's recycled corruption scratch and
    /// budget-clamp buffers, in elements.  Exposed (like
    /// [`Traffic::word_capacity`]) so buffer-reuse tests of round loops in
    /// other crates can assert that the steady state stops allocating.
    pub fn round_buffer_capacity(&self) -> usize {
        self.buffers.scratch.capacity() + self.buffers.controlled.capacity()
    }

    /// Change the number of words per bandwidth-normalised round (default 2).
    pub fn set_bandwidth_words(&mut self, words: usize) {
        self.bandwidth_words = words.max(1);
    }

    /// Execute one communication round: the adversary interposes on `outgoing`
    /// and the returned traffic is what receivers observe.
    ///
    /// Thin by-value wrapper over [`Network::exchange_in_place`] — the buffer
    /// moves in and back out, so no copy is made either way.
    pub fn exchange(&mut self, outgoing: Traffic) -> Traffic {
        let mut traffic = outgoing;
        self.exchange_in_place(&mut traffic);
        traffic
    }

    /// Execute one communication round in place: `traffic` enters as the
    /// round's outgoing messages and leaves as what the receivers observe.
    /// This is the allocation-free engine path — all per-round scratch lives
    /// in recycled buffers owned by the network.
    ///
    /// # Panics
    ///
    /// Panics if `traffic` has fewer arc slots than the graph (build it with
    /// [`Traffic::new`] or size it with [`Traffic::begin_round`]).
    pub fn exchange_in_place(&mut self, traffic: &mut Traffic) {
        assert!(
            traffic.arc_slots() >= self.graph.arc_count(),
            "traffic has {} arc slots but the graph has {} arcs",
            traffic.arc_slots(),
            self.graph.arc_count()
        );
        let round = self.metrics.rounds;
        self.tracer.set_time(round as u64);
        self.tracer.span_open(Phase::RoundExchange);
        self.metrics.record_exchange(traffic, self.bandwidth_words);

        // 1. Let the strategy mark edges, then clamp to the budget.
        self.buffers.wanted.reset(self.graph.edge_count());
        self.strategy
            .mark_edges(round, &self.graph, traffic, &mut self.buffers.wanted);
        let cap = self.budget.round_cap(self.budget_spent);
        let RoundBuffers {
            wanted,
            controlled,
            scratch,
        } = &mut self.buffers;
        controlled.clear();
        for e in wanted.iter() {
            if controlled.len() >= cap {
                break;
            }
            if e < self.graph.edge_count() && self.budget.allows_edge(e) {
                controlled.push(e);
            }
        }
        if matches!(self.budget, CorruptionBudget::RoundErrorRate { .. }) {
            self.budget_spent += controlled.len();
        }

        // 2. Apply the adversary's role on the controlled edges, in place.
        let mut altered = 0usize;
        let mode = self.strategy.corruption_mode();
        for &e in controlled.iter() {
            let (fwd_arc, bwd_arc) = Graph::arcs_of(e);
            self.tracer.point(EventKind::CorruptionApplied { edge: e });
            match self.role {
                AdversaryRole::Eavesdropper => {
                    self.view_log.entries.push(ViewEntry {
                        round,
                        edge: e,
                        forward: traffic.get_arc(fwd_arc).map(<[u64]>::to_vec),
                        backward: traffic.get_arc(bwd_arc).map(<[u64]>::to_vec),
                    });
                }
                AdversaryRole::Byzantine => {
                    for arc in [fwd_arc, bwd_arc] {
                        let present = mode.apply_into(
                            traffic.get_arc(arc),
                            &mut self.corruption_rng,
                            scratch,
                        );
                        let changed = match (present, traffic.get_arc(arc)) {
                            (true, Some(original)) => scratch.as_slice() != original,
                            (false, None) => false,
                            _ => true,
                        };
                        if changed {
                            altered += 1;
                        }
                        traffic.set_arc(arc, present.then_some(scratch.as_slice()));
                    }
                }
            }
        }
        self.metrics.record_corruption(controlled, altered);
        self.corruption_history.push_round(controlled);
        self.tracer.span_close(Phase::RoundExchange);
    }

    /// Run `count` empty rounds (used to model waiting / padding rounds; the
    /// adversary still gets to act, which matters for budget accounting).
    pub fn idle_rounds(&mut self, count: usize) {
        let mut t = Traffic::new(&self.graph);
        for _ in 0..count {
            t.begin_round(&self.graph);
            self.exchange_in_place(&mut t);
        }
    }

    /// Deterministic per-node private randomness stream: node `v`'s RNG derived
    /// from `run_seed`.  The adversary has no access to these streams.
    pub fn node_rng(run_seed: u64, node: usize) -> ChaCha8Rng {
        let mixed = run_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .rotate_left(17);
        ChaCha8Rng::seed_from_u64(mixed)
    }

    /// Convenience: a fresh uniformly random word from the network-owned
    /// "public coin" (usable where the paper allows shared public randomness
    /// that the adversary may know).
    pub fn public_coin(&mut self) -> u64 {
        self.corruption_rng.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CorruptionMode, FixedEdges, RandomMobile};
    use netgraph::generators;

    fn full_traffic(g: &Graph, value: u64) -> Traffic {
        let mut t = Traffic::new(g);
        for e in g.edges() {
            t.send(g, e.u, e.v, vec![value]);
            t.send(g, e.v, e.u, vec![value + 1]);
        }
        t
    }

    #[test]
    fn fault_free_delivers_verbatim() {
        let g = generators::cycle(5);
        let mut net = Network::fault_free(g.clone());
        let t = full_traffic(&g, 3);
        let out = net.exchange(t.clone());
        assert!(out.agrees_with(&t));
        assert_eq!(net.round(), 1);
        assert_eq!(net.metrics().messages, 10);
        assert!(net.corruption_history()[0].is_empty());
    }

    #[test]
    fn byzantine_static_corrupts_only_fixed_edges() {
        let g = generators::cycle(5);
        let target = g.edge_between(0, 1).unwrap();
        let strategy = FixedEdges::new(vec![target]).with_mode(CorruptionMode::Constant(77));
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(strategy),
            CorruptionBudget::Static(vec![target]),
            0,
        );
        let t = full_traffic(&g, 3);
        let out = net.exchange(t.clone());
        assert_eq!(out.get(&g, 0, 1), Some(&[77u64][..]));
        assert_eq!(out.get(&g, 1, 0), Some(&[77u64][..]));
        // Every other edge is untouched.
        for e in g.edges() {
            if g.edge_between(e.u, e.v).unwrap() != target {
                assert_eq!(out.get(&g, e.u, e.v), t.get(&g, e.u, e.v));
            }
        }
        assert_eq!(net.metrics().corrupted_edge_rounds, 1);
        assert_eq!(net.metrics().corrupted_messages, 2);
    }

    #[test]
    fn mobile_budget_clamps_requests() {
        let g = generators::complete(6);
        // Strategy wants 10 edges, budget allows only 2.
        let strategy = RandomMobile::new(10, 7);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(strategy),
            CorruptionBudget::Mobile { f: 2 },
            1,
        );
        for _ in 0..5 {
            let _ = net.exchange(full_traffic(&g, 1));
        }
        for round_edges in net.corruption_history() {
            assert!(round_edges.len() <= 2);
        }
        assert_eq!(net.metrics().corrupted_edge_rounds, 10);
        assert_eq!(net.corruption_history().total_edge_rounds(), 10);
    }

    #[test]
    fn round_error_rate_budget_is_exhausted() {
        let g = generators::complete(5);
        let strategy = RandomMobile::new(5, 3);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(strategy),
            CorruptionBudget::RoundErrorRate { total: 7 },
            2,
        );
        for _ in 0..10 {
            let _ = net.exchange(full_traffic(&g, 1));
        }
        assert_eq!(net.metrics().corrupted_edge_rounds, 7);
        // Later rounds must be clean.
        assert!(net.corruption_history()[9].is_empty() || net.metrics().corrupted_edge_rounds == 7);
    }

    #[test]
    fn eavesdropper_records_but_does_not_modify() {
        let g = generators::path(3);
        let e01 = g.edge_between(0, 1).unwrap();
        let strategy = FixedEdges::new(vec![e01]);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(strategy),
            CorruptionBudget::Static(vec![e01]),
            0,
        );
        let t = full_traffic(&g, 9);
        let out = net.exchange(t.clone());
        assert!(out.agrees_with(&t), "eavesdropper must not alter traffic");
        assert_eq!(net.view_log().len(), 1);
        let entry = &net.view_log().entries[0];
        assert_eq!(entry.edge, e01);
        assert_eq!(entry.forward, Some(vec![9]));
        assert_eq!(entry.backward, Some(vec![10]));
        assert!(!net.view_log().canonical().is_empty());
    }

    #[test]
    fn idle_rounds_advance_the_clock() {
        let g = generators::path(2);
        let mut net = Network::fault_free(g);
        net.idle_rounds(4);
        assert_eq!(net.round(), 4);
    }

    #[test]
    fn node_rngs_are_distinct_and_deterministic() {
        let mut a = Network::node_rng(7, 0);
        let mut a2 = Network::node_rng(7, 0);
        let mut b = Network::node_rng(7, 1);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let xs2: Vec<u64> = (0..4).map(|_| a2.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_eq!(xs, xs2);
        assert_ne!(xs, ys);
    }

    #[test]
    fn corruption_history_flattening_round_trips() {
        let mut h = CorruptionHistory::default();
        h.push_round(&[3, 1]);
        h.push_round(&[]);
        h.push_round(&[7]);
        assert_eq!(h.len(), 3);
        assert_eq!(&h[0], &[3, 1][..]);
        assert!(h[1].is_empty());
        assert_eq!(h.last(), Some(&[7usize][..]));
        assert_eq!(h.total_edge_rounds(), 3);
        let rounds: Vec<&[EdgeId]> = h.iter().collect();
        assert_eq!(rounds.len(), 3);
    }

    #[test]
    fn steady_state_rounds_do_not_grow_the_buffers() {
        // The zero-allocation claim of the round engine: after warm-up, the
        // traffic arena, the adversary's scratch and the budget-clamp buffers
        // all stop growing — per-round allocation count is constant (zero) in
        // the round count.
        let g = generators::complete(10);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(3, 5).with_mode(CorruptionMode::ReplaceRandom)),
            CorruptionBudget::Mobile { f: 3 },
            5,
        );
        let mut t = Traffic::new(&g);
        let run_round = |net: &mut Network, t: &mut Traffic| {
            t.begin_round(&g);
            for e in g.edges() {
                t.send(&g, e.u, e.v, [e.u as u64, e.v as u64]);
                t.send(&g, e.v, e.u, [e.v as u64, e.u as u64]);
            }
            net.exchange_in_place(t);
        };
        for _ in 0..20 {
            run_round(&mut net, &mut t);
        }
        let traffic_cap = t.word_capacity();
        let scratch_cap = net.buffers.scratch.capacity();
        let controlled_cap = net.buffers.controlled.capacity();
        for _ in 0..500 {
            run_round(&mut net, &mut t);
        }
        assert_eq!(t.word_capacity(), traffic_cap, "traffic arena regrew");
        assert_eq!(
            net.buffers.scratch.capacity(),
            scratch_cap,
            "corruption scratch regrew"
        );
        assert_eq!(
            net.buffers.controlled.capacity(),
            controlled_cap,
            "controlled buffer regrew"
        );
    }
}
