//! Flooding broadcast and leader election.
//!
//! The simplest payload algorithms: a designated source floods a value through
//! the network (every node forwards it the round after first hearing it), and
//! leader election floods the maximum node identifier.  Both run for
//! `diameter` rounds and send at most a couple of messages per edge, making
//! them the canonical *low-congestion* payloads for the secure compilers.

use congest_sim::traffic::{Output, Traffic};
use congest_sim::CongestAlgorithm;
use netgraph::{Graph, NodeId};

/// Flooding broadcast of a single value from a source node.
///
/// Output per node: `[value]` if the node learned the broadcast value, `[]`
/// otherwise (cannot happen on a connected graph when run fault-free).
#[derive(Debug, Clone)]
pub struct FloodBroadcast {
    graph: Graph,
    source: NodeId,
    value: u64,
    rounds: usize,
    /// Current knowledge per node.
    known: Vec<Option<u64>>,
    /// Whether the node has already forwarded its value.
    forwarded: Vec<bool>,
}

impl FloodBroadcast {
    /// Broadcast `value` from `source` over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (the broadcast could never complete).
    pub fn new(graph: Graph, source: NodeId, value: u64) -> Self {
        let d = graph
            .diameter()
            .expect("FloodBroadcast requires a connected graph");
        let n = graph.node_count();
        let mut known = vec![None; n];
        known[source] = Some(value);
        FloodBroadcast {
            graph,
            source,
            value,
            rounds: d.max(1),
            known,
            forwarded: vec![false; n],
        }
    }

    /// The broadcast value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Expected output for every node in a correct execution.
    pub fn expected_outputs(&self) -> Vec<Output> {
        vec![vec![self.value]; self.graph.node_count()]
    }
}

impl CongestAlgorithm for FloodBroadcast {
    fn name(&self) -> String {
        "flood-broadcast".into()
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn send_into(&mut self, _round: usize, out: &mut Traffic) {
        out.begin_round(&self.graph);
        for v in self.graph.nodes() {
            if let Some(val) = self.known[v] {
                if !self.forwarded[v] {
                    for &(u, _) in self.graph.neighbors(v) {
                        out.send(&self.graph, v, u, [val]);
                    }
                    self.forwarded[v] = true;
                }
            }
        }
    }

    fn receive(&mut self, _round: usize, inbox: &Traffic) {
        for v in self.graph.nodes() {
            if self.known[v].is_some() {
                continue;
            }
            for (_, payload) in inbox.inbox(&self.graph, v) {
                if let Some(&val) = payload.first() {
                    self.known[v] = Some(val);
                    break;
                }
            }
        }
    }

    fn outputs(&self) -> Vec<Output> {
        self.known
            .iter()
            .map(|k| k.map(|v| vec![v]).unwrap_or_default())
            .collect()
    }

    fn congestion_bound(&self) -> Option<usize> {
        Some(2)
    }
}

/// Leader election by flooding the maximum node id for `diameter` rounds.
///
/// Output per node: `[leader_id]`.
#[derive(Debug, Clone)]
pub struct LeaderElection {
    graph: Graph,
    rounds: usize,
    best: Vec<u64>,
}

impl LeaderElection {
    /// Elect the maximum id on a connected graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn new(graph: Graph) -> Self {
        let d = graph
            .diameter()
            .expect("LeaderElection requires a connected graph");
        let best = graph.nodes().map(|v| v as u64).collect();
        LeaderElection {
            graph,
            rounds: d.max(1),
            best,
        }
    }

    /// Expected output (the maximum id, at every node).
    pub fn expected_outputs(&self) -> Vec<Output> {
        let leader = self.graph.node_count() as u64 - 1;
        vec![vec![leader]; self.graph.node_count()]
    }
}

impl CongestAlgorithm for LeaderElection {
    fn name(&self) -> String {
        "leader-election".into()
    }

    fn rounds(&self) -> usize {
        self.rounds
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
            let mut best = self.best[v];
            for (_, payload) in inbox.inbox(&self.graph, v) {
                if let Some(&val) = payload.first() {
                    if val < self.graph.node_count() as u64 {
                        best = best.max(val);
                    }
                }
            }
            self.best[v] = best;
        }
    }

    fn outputs(&self) -> Vec<Output> {
        self.best.iter().map(|&b| vec![b]).collect()
    }

    fn congestion_bound(&self) -> Option<usize> {
        Some(self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::run_fault_free;
    use netgraph::generators;

    #[test]
    fn broadcast_reaches_all_nodes() {
        let g = generators::grid(3, 4);
        let mut alg = FloodBroadcast::new(g, 5, 777);
        let out = run_fault_free(&mut alg);
        assert_eq!(out, alg.expected_outputs());
    }

    #[test]
    fn broadcast_from_every_source_on_cycle() {
        for s in 0..6 {
            let g = generators::cycle(6);
            let mut alg = FloodBroadcast::new(g, s, 42);
            let out = run_fault_free(&mut alg);
            assert!(out.iter().all(|o| o == &vec![42]));
        }
    }

    #[test]
    #[should_panic]
    fn broadcast_rejects_disconnected_graph() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let _ = FloodBroadcast::new(g, 0, 1);
    }

    #[test]
    fn leader_election_elects_max_id() {
        for g in [
            generators::path(7),
            generators::cycle(8),
            generators::complete(5),
            generators::hypercube(3),
        ] {
            let mut alg = LeaderElection::new(g.clone());
            let out = run_fault_free(&mut alg);
            assert_eq!(
                out,
                alg.expected_outputs(),
                "graph with {} nodes",
                g.node_count()
            );
        }
    }

    #[test]
    fn leader_election_ignores_out_of_range_claims() {
        // receive() must not accept a fabricated id ≥ n (defensive validation the
        // byzantine experiments rely on to distinguish "wrong" from "absurd").
        let g = generators::path(3);
        let mut alg = LeaderElection::new(g.clone());
        let mut t = Traffic::new(&g);
        t.send(&g, 0, 1, vec![999]);
        alg.receive(0, &t);
        assert!(alg.outputs()[1][0] < 3);
    }
}
