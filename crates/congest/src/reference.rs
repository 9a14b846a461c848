//! The PR-2-era round engine, retained verbatim as a test-only *oracle*:
//! the parity tests below drive the same rounds through this engine and
//! through [`crate::network::Network`] and require byte-identical outputs,
//! metrics, corruption history and eavesdropper views, proving the
//! flat-buffer rewrite changed the cost of a round but not its semantics.
//!
//! The module is compiled only under `cfg(test)`; nothing outside this file
//! can reach it.

use crate::adversary::{AdversaryRole, AdversaryStrategy, CorruptionBudget, EdgeSet, RoundView};
use crate::metrics::Metrics;
use crate::network::{ViewEntry, ViewLog};
use crate::traffic::{Payload, Traffic};
use netgraph::{ArcId, EdgeId, Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The seed representation of one round's traffic: one owned, optional
/// payload per directed arc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegacyTraffic {
    arcs: Vec<Option<Payload>>,
}

impl LegacyTraffic {
    /// Empty traffic for a graph.
    pub fn new(g: &Graph) -> Self {
        LegacyTraffic {
            arcs: vec![None; g.arc_count()],
        }
    }

    /// Set the message sent from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `(from, to)` is not an edge of the graph.
    pub fn send(&mut self, g: &Graph, from: NodeId, to: NodeId, payload: Payload) {
        let arc = g
            .arc_between(from, to)
            .unwrap_or_else(|| panic!("({from},{to}) is not an edge"));
        self.arcs[arc] = Some(payload);
    }

    /// The message on a specific arc, if any.
    pub fn get_arc(&self, arc: ArcId) -> Option<&Payload> {
        self.arcs.get(arc).and_then(|o| o.as_ref())
    }

    /// Convert to the flat representation (for delivering to an algorithm).
    pub fn to_traffic(&self, g: &Graph) -> Traffic {
        let mut t = Traffic::new(g);
        for (arc, payload) in self.arcs.iter().enumerate() {
            if let Some(p) = payload {
                t.set_arc(arc, Some(p));
            }
        }
        t
    }

    /// Convert from the flat representation (for feeding an algorithm's round
    /// into this engine).
    pub fn from_traffic(g: &Graph, t: &Traffic) -> Self {
        let mut out = LegacyTraffic::new(g);
        for (arc, payload) in t.iter_present() {
            out.arcs[arc] = Some(payload.to_vec());
        }
        out
    }
}

/// The seed round engine: identical decision sequence to
/// [`crate::network::Network`], seed-era data structures (per-round `Vec`s,
/// per-payload clones, allocating corruption).
pub struct ReferenceNetwork {
    graph: Graph,
    role: AdversaryRole,
    strategy: Box<dyn AdversaryStrategy>,
    budget: CorruptionBudget,
    /// Metrics accumulated exactly as the production engine accumulates them.
    pub metrics: Metrics,
    /// The eavesdropper's view.
    pub view_log: ViewLog,
    /// Per-round controlled edges, in the seed's nested representation.
    pub corruption_history: Vec<Vec<EdgeId>>,
    budget_spent: usize,
    bandwidth_words: usize,
    corruption_rng: ChaCha8Rng,
    rounds: usize,
    /// Recycled request set for [`AdversaryStrategy::mark_edges`] (the
    /// reference engine predates [`EdgeSet`] but uses the non-allocating
    /// strategy entry point like the production engine does).
    wanted: EdgeSet,
}

impl ReferenceNetwork {
    /// A reference network with the given adversary configuration (mirrors
    /// [`crate::network::Network::new`], including the RNG derivation).
    pub fn new(
        graph: Graph,
        role: AdversaryRole,
        strategy: Box<dyn AdversaryStrategy>,
        budget: CorruptionBudget,
        seed: u64,
    ) -> Self {
        let metrics = Metrics::new(&graph);
        ReferenceNetwork {
            graph,
            role,
            strategy,
            budget,
            metrics,
            view_log: ViewLog::default(),
            corruption_history: Vec::new(),
            budget_spent: 0,
            bandwidth_words: 2,
            corruption_rng: ChaCha8Rng::seed_from_u64(seed ^ 0xAD5E_55A7),
            rounds: 0,
            wanted: EdgeSet::new(),
        }
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of rounds executed.
    pub fn round(&self) -> usize {
        self.rounds
    }

    /// The seed's `Network::exchange`, verbatim: allocate-and-clone on every
    /// controlled arc.
    pub fn exchange(&mut self, outgoing: LegacyTraffic) -> LegacyTraffic {
        let round = self.rounds;
        self.rounds += 1;
        // Metrics, recorded identically to the production engine.
        let flat = outgoing.to_traffic(&self.graph);
        self.metrics.record_exchange(&flat, self.bandwidth_words);

        self.wanted.reset(self.graph.edge_count());
        self.strategy.mark_edges(
            round,
            &self.graph,
            &RoundView::of(&self.graph, &flat),
            &mut self.wanted,
        );
        let cap = self.budget.round_cap(self.budget_spent);
        let mut controlled: Vec<EdgeId> = Vec::new();
        for &e in self.wanted.as_slice() {
            if controlled.len() >= cap {
                break;
            }
            if e < self.graph.edge_count() && self.budget.allows_edge(e) && !controlled.contains(&e)
            {
                controlled.push(e);
            }
        }
        if matches!(self.budget, CorruptionBudget::RoundErrorRate { .. }) {
            self.budget_spent += controlled.len();
        }

        let mut delivered = outgoing;
        let mut altered = 0usize;
        for &e in &controlled {
            let (fwd_arc, bwd_arc) = Graph::arcs_of(e);
            match self.role {
                AdversaryRole::Eavesdropper => {
                    self.view_log.entries.push(ViewEntry {
                        round,
                        edge: e,
                        forward: delivered.get_arc(fwd_arc).cloned(),
                        backward: delivered.get_arc(bwd_arc).cloned(),
                    });
                }
                AdversaryRole::Byzantine => {
                    let mode = self.strategy.corruption_mode();
                    for arc in [fwd_arc, bwd_arc] {
                        let original = delivered.get_arc(arc).cloned();
                        let replacement = mode.apply(original.as_ref(), &mut self.corruption_rng);
                        if replacement != original {
                            altered += 1;
                        }
                        delivered.arcs[arc] = replacement;
                    }
                }
            }
        }
        self.metrics.record_corruption(&controlled, altered);
        self.corruption_history.push(controlled);
        delivered
    }
}

/// Run an algorithm uncompiled through the reference engine (the seed's
/// `run_on_network`): per-round conversion to the legacy representation, the
/// legacy exchange, and conversion back for delivery.
pub fn run_on_reference_network<A: crate::algorithm::CongestAlgorithm + ?Sized>(
    alg: &mut A,
    net: &mut ReferenceNetwork,
) -> Vec<crate::traffic::Output> {
    let g = net.graph().clone();
    let mut sent = Traffic::new(&g);
    for round in 0..alg.rounds() {
        alg.send_into(round, &mut sent);
        let outgoing = LegacyTraffic::from_traffic(&g, &sent);
        let delivered = net.exchange(outgoing);
        alg.receive(round, &delivered.to_traffic(&g));
    }
    alg.outputs()
}

mod tests {
    use super::*;
    use crate::adversary::{CorruptionMode, RandomMobile};
    use crate::algorithm::CongestAlgorithm;
    use crate::network::Network;
    use crate::scenario::{Scenario, Uncompiled};
    use netgraph::generators;

    /// A multi-round payload: every node floods the largest word it has seen
    /// to all neighbours for four rounds and outputs it.  Every arc carries a
    /// message every round, so corruption lands on live traffic and feeds
    /// back into later rounds.
    struct FloodMax {
        graph: Graph,
        best: Vec<u64>,
    }

    impl FloodMax {
        fn new(graph: Graph) -> Self {
            let best = graph.nodes().map(|v| 2 * v as u64 + 10).collect();
            FloodMax { graph, best }
        }
    }

    impl CongestAlgorithm for FloodMax {
        fn name(&self) -> String {
            "flood-max".into()
        }
        fn rounds(&self) -> usize {
            4
        }
        fn send_into(&mut self, _round: usize, out: &mut Traffic) {
            out.begin_round(&self.graph);
            for v in self.graph.nodes() {
                for &(u, _) in self.graph.neighbors(v) {
                    out.send(&self.graph, v, u, [self.best[v]]);
                }
            }
        }
        fn receive(&mut self, _round: usize, inbox: &Traffic) {
            for v in self.graph.nodes() {
                for (_, payload) in inbox.inbox(&self.graph, v) {
                    self.best[v] = self.best[v].max(payload[0]);
                }
            }
        }
        fn outputs(&self) -> Vec<crate::traffic::Output> {
            self.best.iter().map(|&b| vec![b]).collect()
        }
    }

    /// Through the `Scenario` pipeline, the flat-buffer round engine gives
    /// the seed-era reference engine's `RunReport` facets exactly: same
    /// outputs, same metrics, same eavesdropper view, same round count.  The
    /// rewrite changed the cost of a round, not its semantics.
    #[test]
    fn flat_engine_matches_the_seed_reference_engine_through_the_scenario_pipeline() {
        for (role, seed) in [
            (AdversaryRole::Byzantine, 41u64),
            (AdversaryRole::Eavesdropper, 42),
        ] {
            for g in [
                generators::complete(10),
                generators::torus(3, 4),
                generators::ring_of_cliques(3, 4),
            ] {
                // Uncompiled through the Scenario pipeline (flat engine).
                let gg = g.clone();
                let report = Scenario::on(g.clone())
                    .payload(move || FloodMax::new(gg.clone()))
                    .adversary(
                        role,
                        RandomMobile::new(2, seed).with_mode(CorruptionMode::FlipLowBit),
                        CorruptionBudget::Mobile { f: 2 },
                    )
                    .seed(seed)
                    .compiled_with(Uncompiled)
                    .run()
                    .unwrap();

                // The same cell through the retained seed engine.
                let mut ref_net = ReferenceNetwork::new(
                    g.clone(),
                    role,
                    Box::new(RandomMobile::new(2, seed).with_mode(CorruptionMode::FlipLowBit)),
                    CorruptionBudget::Mobile { f: 2 },
                    seed,
                );
                let ref_out = run_on_reference_network(&mut FloodMax::new(g.clone()), &mut ref_net);

                assert_eq!(report.outputs, ref_out, "outputs under {role:?}");
                assert_eq!(report.metrics, ref_net.metrics, "metrics under {role:?}");
                assert_eq!(report.view, ref_net.view_log, "view under {role:?}");
                assert_eq!(report.network_rounds, ref_net.round());
                if role == AdversaryRole::Eavesdropper {
                    // Eavesdroppers never alter traffic, so even the
                    // uncompiled outputs match the fault-free reference.
                    assert_eq!(report.agrees_with_fault_free(), Some(true));
                } else {
                    assert!(report.metrics.corrupted_messages > 0, "adversary acted");
                }
            }
        }
    }

    /// The parity contract: identical decision sequences on both engines.
    #[test]
    fn reference_and_flat_engine_agree_round_by_round() {
        let g = netgraph::generators::complete(8);
        let make = |role| {
            (
                Network::new(
                    g.clone(),
                    role,
                    Box::new(RandomMobile::new(2, 9)),
                    CorruptionBudget::Mobile { f: 2 },
                    9,
                ),
                ReferenceNetwork::new(
                    g.clone(),
                    role,
                    Box::new(RandomMobile::new(2, 9)),
                    CorruptionBudget::Mobile { f: 2 },
                    9,
                ),
            )
        };
        for role in [AdversaryRole::Byzantine, AdversaryRole::Eavesdropper] {
            let (mut flat_net, mut ref_net) = make(role);
            for round in 0..12 {
                let mut flat = Traffic::new(&g);
                let mut legacy = LegacyTraffic::new(&g);
                for e in g.edges() {
                    let w = (round as u64) << 8 | e.u as u64;
                    flat.send(&g, e.u, e.v, [w]);
                    legacy.send(&g, e.u, e.v, vec![w]);
                }
                flat_net.exchange_in_place(&mut flat);
                let delivered = ref_net.exchange(legacy);
                assert_eq!(
                    flat,
                    delivered.to_traffic(&g),
                    "round {round} delivered traffic diverged"
                );
            }
            assert_eq!(flat_net.metrics(), &ref_net.metrics);
            assert_eq!(flat_net.view_log(), &ref_net.view_log);
            let flat_history: Vec<Vec<EdgeId>> = flat_net
                .corruption_history()
                .iter()
                .map(|r| r.to_vec())
                .collect();
            assert_eq!(flat_history, ref_net.corruption_history);
        }
    }
}
