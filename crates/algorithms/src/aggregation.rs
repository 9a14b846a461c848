//! BFS-tree construction and convergecast aggregation.
//!
//! `BfsTreeAlgorithm` builds a breadth-first spanning tree from a root (each
//! node outputs its parent and depth); `ConvergecastSum` additionally
//! aggregates per-node inputs up the tree so the root learns their sum, then
//! broadcasts the total back down — the classic "distributed sensor sum"
//! workload used by the secure-aggregation example.

use congest_sim::traffic::{Output, Traffic};
use congest_sim::CongestAlgorithm;
use netgraph::{Graph, NodeId};

/// Distributed BFS tree construction.
///
/// Output per node: `[parent + 1, depth]` (`parent + 1` so the root, which has
/// no parent, outputs `0`).
#[derive(Debug, Clone)]
pub struct BfsTreeAlgorithm {
    graph: Graph,
    root: NodeId,
    rounds: usize,
    depth: Vec<Option<u64>>,
    parent: Vec<Option<NodeId>>,
    announced: Vec<bool>,
}

impl BfsTreeAlgorithm {
    /// Build a BFS tree rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn new(graph: Graph, root: NodeId) -> Self {
        let d = graph
            .diameter()
            .expect("BfsTreeAlgorithm requires a connected graph");
        let n = graph.node_count();
        let mut depth = vec![None; n];
        depth[root] = Some(0);
        BfsTreeAlgorithm {
            graph,
            root,
            rounds: d.max(1),
            depth,
            parent: vec![None; n],
            announced: vec![false; n],
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Expected outputs in a correct execution (parents chosen by smallest
    /// announcing neighbour are not unique, so only depths are compared).
    #[cfg(test)]
    pub(crate) fn expected_depths(&self) -> Vec<u64> {
        netgraph::traversal::bfs(&self.graph, self.root)
            .dist
            .iter()
            .map(|d| d.unwrap() as u64)
            .collect()
    }
}

impl CongestAlgorithm for BfsTreeAlgorithm {
    fn name(&self) -> String {
        "bfs-tree".into()
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn send_into(&mut self, _round: usize, out: &mut Traffic) {
        out.begin_round(&self.graph);
        for v in self.graph.nodes() {
            if let Some(d) = self.depth[v] {
                if !self.announced[v] {
                    for &(u, _) in self.graph.neighbors(v) {
                        out.send(&self.graph, v, u, [d]);
                    }
                    self.announced[v] = true;
                }
            }
        }
    }

    fn receive(&mut self, _round: usize, inbox: &Traffic) {
        for v in self.graph.nodes() {
            if self.depth[v].is_some() {
                continue;
            }
            // Adopt the smallest-depth announcing neighbour as parent.
            let mut best: Option<(u64, NodeId)> = None;
            for (from, payload) in inbox.inbox(&self.graph, v) {
                if let Some(&d) = payload.first() {
                    if best.is_none_or(|(bd, bf)| d < bd || (d == bd && from < bf)) {
                        best = Some((d, from));
                    }
                }
            }
            if let Some((d, from)) = best {
                self.depth[v] = Some(d + 1);
                self.parent[v] = Some(from);
            }
        }
    }

    fn outputs(&self) -> Vec<Output> {
        self.graph
            .nodes()
            .map(|v| {
                vec![
                    self.parent[v].map(|p| p as u64 + 1).unwrap_or(0),
                    self.depth[v].unwrap_or(u64::MAX),
                ]
            })
            .collect()
    }

    fn congestion_bound(&self) -> Option<usize> {
        Some(2)
    }
}

/// Convergecast sum over an internally constructed BFS tree, followed by a
/// broadcast of the total.
///
/// Output per node: `[total]` where `total` is the sum of all nodes' inputs.
#[derive(Debug, Clone)]
pub struct ConvergecastSum {
    graph: Graph,
    root: NodeId,
    inputs: Vec<u64>,
    rounds: usize,
    diam: usize,
    // BFS phase state.
    depth: Vec<Option<u64>>,
    parent: Vec<Option<NodeId>>,
    announced: Vec<bool>,
    // Aggregation phase state.
    subtotal: Vec<u64>,
    sent_up: Vec<bool>,
    received_from: Vec<Vec<NodeId>>,
    // Broadcast phase state.
    total: Vec<Option<u64>>,
    forwarded_total: Vec<bool>,
}

impl ConvergecastSum {
    /// Sum `inputs` (one per node) toward `root`, then tell everyone the total.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or `inputs.len() != n`.
    pub fn new(graph: Graph, root: NodeId, inputs: Vec<u64>) -> Self {
        let d = graph
            .diameter()
            .expect("ConvergecastSum requires a connected graph");
        let n = graph.node_count();
        assert_eq!(inputs.len(), n, "one input per node required");
        let mut depth = vec![None; n];
        depth[root] = Some(0);
        let subtotal = inputs.clone();
        let mut total = vec![None; n];
        let rounds = d.max(1) * 3 + 2;
        if n == 1 {
            total[root] = Some(inputs[root]);
        }
        ConvergecastSum {
            graph,
            root,
            inputs,
            rounds,
            diam: d.max(1),
            depth,
            parent: vec![None; n],
            announced: vec![false; n],
            subtotal,
            sent_up: vec![false; n],
            received_from: vec![Vec::new(); n],
            total,
            forwarded_total: vec![false; n],
        }
    }

    /// The correct total.
    pub fn expected_total(&self) -> u64 {
        self.inputs
            .iter()
            .copied()
            .fold(0u64, |a, b| a.wrapping_add(b))
    }

    /// Expected output for every node.
    pub fn expected_outputs(&self) -> Vec<Output> {
        vec![vec![self.expected_total()]; self.graph.node_count()]
    }

    fn children_of(&self, v: NodeId) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|&c| self.parent[c] == Some(v))
            .collect()
    }
}

/// Message tags for the three phases.
const TAG_BFS: u64 = 1;
const TAG_UP: u64 = 2;
const TAG_TOTAL: u64 = 3;

impl CongestAlgorithm for ConvergecastSum {
    fn name(&self) -> String {
        "convergecast-sum".into()
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn send_into(&mut self, round: usize, out: &mut Traffic) {
        out.begin_round(&self.graph);
        if round < self.diam {
            // Phase 1: BFS construction.
            for v in self.graph.nodes() {
                if let Some(d) = self.depth[v] {
                    if !self.announced[v] {
                        for &(u, _) in self.graph.neighbors(v) {
                            out.send(&self.graph, v, u, [TAG_BFS, d]);
                        }
                        self.announced[v] = true;
                    }
                }
            }
        } else if round < 2 * self.diam + 1 {
            // Phase 2: convergecast — a node sends its subtotal to its parent
            // once it has heard from all of its children.
            for v in self.graph.nodes() {
                if v == self.root || self.sent_up[v] {
                    continue;
                }
                let children = self.children_of(v);
                let ready = children.iter().all(|c| self.received_from[v].contains(c));
                if ready {
                    if let Some(p) = self.parent[v] {
                        out.send(&self.graph, v, p, [TAG_UP, self.subtotal[v]]);
                        self.sent_up[v] = true;
                    }
                }
            }
        } else {
            // Phase 3: broadcast the total down the tree.
            if self.total[self.root].is_none() {
                let children = self.children_of(self.root);
                if children
                    .iter()
                    .all(|c| self.received_from[self.root].contains(c))
                {
                    self.total[self.root] = Some(self.subtotal[self.root]);
                }
            }
            for v in self.graph.nodes() {
                if let Some(total) = self.total[v] {
                    if !self.forwarded_total[v] {
                        for c in self.children_of(v) {
                            out.send(&self.graph, v, c, [TAG_TOTAL, total]);
                        }
                        self.forwarded_total[v] = true;
                    }
                }
            }
        }
    }

    fn receive(&mut self, _round: usize, inbox: &Traffic) {
        for v in self.graph.nodes() {
            for (from, payload) in inbox.inbox(&self.graph, v) {
                match payload.first() {
                    Some(&TAG_BFS) if self.depth[v].is_none() => {
                        if let Some(&d) = payload.get(1) {
                            self.depth[v] = Some(d + 1);
                            self.parent[v] = Some(from);
                        }
                    }
                    Some(&TAG_UP) => {
                        if let Some(&val) = payload.get(1) {
                            if !self.received_from[v].contains(&from) {
                                self.received_from[v].push(from);
                                self.subtotal[v] = self.subtotal[v].wrapping_add(val);
                            }
                        }
                    }
                    Some(&TAG_TOTAL) if self.total[v].is_none() => {
                        if let Some(&val) = payload.get(1) {
                            self.total[v] = Some(val);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn outputs(&self) -> Vec<Output> {
        self.total
            .iter()
            .map(|t| t.map(|v| vec![v]).unwrap_or_default())
            .collect()
    }

    fn congestion_bound(&self) -> Option<usize> {
        Some(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::run_fault_free;
    use netgraph::generators;

    #[test]
    fn bfs_depths_match_reference() {
        for g in [
            generators::grid(3, 3),
            generators::cycle(9),
            generators::hypercube(4),
        ] {
            let mut alg = BfsTreeAlgorithm::new(g.clone(), 0);
            let expected = alg.expected_depths();
            let out = run_fault_free(&mut alg);
            for v in g.nodes() {
                assert_eq!(out[v][1], expected[v], "node {v}");
                if v != 0 {
                    // The parent must be a real neighbour one level closer.
                    let parent = out[v][0] as usize - 1;
                    assert!(g.has_edge(v, parent));
                    assert_eq!(expected[parent] + 1, expected[v]);
                }
            }
        }
    }

    #[test]
    fn convergecast_sum_computes_total_everywhere() {
        for g in [
            generators::path(6),
            generators::grid(3, 4),
            generators::complete(7),
            generators::cycle(5),
        ] {
            let n = g.node_count();
            let inputs: Vec<u64> = (0..n as u64).map(|v| v * 3 + 1).collect();
            let mut alg = ConvergecastSum::new(g, 0, inputs);
            let expect = alg.expected_outputs();
            let out = run_fault_free(&mut alg);
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn convergecast_single_node() {
        let g = Graph::new(1);
        let mut alg = ConvergecastSum::new(g, 0, vec![99]);
        let out = run_fault_free(&mut alg);
        assert_eq!(out, vec![vec![99]]);
    }

    #[test]
    #[should_panic]
    fn convergecast_requires_matching_inputs() {
        let g = generators::path(3);
        let _ = ConvergecastSum::new(g, 0, vec![1, 2]);
    }

    #[test]
    fn convergecast_sum_wraps_instead_of_overflowing() {
        let g = generators::path(3);
        let mut alg = ConvergecastSum::new(g, 0, vec![u64::MAX, 2, 0]);
        let out = run_fault_free(&mut alg);
        assert_eq!(out[0], vec![1u64]);
    }
}
