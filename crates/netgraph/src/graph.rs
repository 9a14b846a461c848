//! Core undirected graph representation used throughout the workspace.
//!
//! The CONGEST model communicates over the edges of an undirected graph; every
//! substrate (simulator, tree packings, cycle covers) and every compiler works
//! against this representation.  Nodes and edges are identified by dense
//! indices so that protocol state can live in flat vectors.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Identifier of a node: a dense index in `[0, n)`.
pub type NodeId = usize;

/// Identifier of an undirected edge: a dense index in `[0, m)`.
pub type EdgeId = usize;

/// A directed occurrence of an undirected edge.
///
/// Arc `2e` points from the smaller-indexed endpoint to the larger one; arc
/// `2e + 1` points the other way.  Protocol traffic is stored per arc.
pub type ArcId = usize;

/// An undirected edge between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Normalised constructor (`u <= v`).
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a <= b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The endpoint different from `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of edge {self:?}")
        }
    }

    /// Whether `x` is an endpoint.
    pub fn touches(&self, x: NodeId) -> bool {
        self.u == x || self.v == x
    }
}

/// One adjacency record of the [`CsrIndex`]: a neighbour together with the
/// connecting edge and both directed arcs, precomputed so hot loops (inbox
/// iteration, per-round metrics) never re-derive arc ids from edge endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrEntry {
    /// The neighbouring node.
    pub neighbor: NodeId,
    /// The connecting undirected edge.
    pub edge: EdgeId,
    /// The directed arc *from this node to* `neighbor`.
    pub arc_out: ArcId,
    /// The directed arc *from* `neighbor` *to this node*.
    pub arc_in: ArcId,
}

/// A compressed-sparse-row view of a graph's adjacency structure: one flat
/// entry array grouped by node, plus an `n + 1` offset table.
///
/// The per-node [`Graph::neighbors`] vectors are convenient while *building*
/// a graph; the CSR index is what the round engine iterates — a single
/// contiguous allocation with per-entry arc ids, so scanning every inbox of a
/// round is a linear walk over `2m` cache-friendly entries.  Built lazily on
/// first use ([`Graph::csr`]) and invalidated by [`Graph::add_edge`].
#[derive(Debug, Clone, Default)]
pub struct CsrIndex {
    /// `offsets[u]..offsets[u + 1]` is `u`'s slice of `entries`.
    offsets: Vec<usize>,
    /// All adjacency records, grouped by node in insertion order.
    entries: Vec<CsrEntry>,
}

impl CsrIndex {
    fn build(g: &GraphData) -> Self {
        let mut offsets = Vec::with_capacity(g.n + 1);
        let mut entries = Vec::with_capacity(2 * g.edges.len());
        offsets.push(0);
        for u in 0..g.n {
            for &(v, e) in &g.adjacency[u] {
                let (fwd, bwd) = Graph::arcs_of(e);
                let forward = g.edges[e].u == u;
                entries.push(CsrEntry {
                    neighbor: v,
                    edge: e,
                    arc_out: if forward { fwd } else { bwd },
                    arc_in: if forward { bwd } else { fwd },
                });
            }
            offsets.push(entries.len());
        }
        CsrIndex { offsets, entries }
    }

    /// The adjacency records of node `u`, in edge-insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> &[CsrEntry] {
        &self.entries[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }

    /// All adjacency records of all nodes, grouped by node.
    pub fn entries(&self) -> &[CsrEntry] {
        &self.entries
    }

    /// Number of nodes the index covers.
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }
}

/// An undirected simple graph with dense node and edge indices.
///
/// The data lives behind one `Arc`, so a clone is a reference-count bump and
/// every clone of one graph shares its structural memos ([`Graph::csr`],
/// [`Graph::min_cut`], [`Graph::diameter`]): whichever clone asks first fills
/// them, once, for all.  [`Graph::add_edge`] copies the data only while it is
/// shared and resets the memos of its own copy.
#[derive(Clone, Default)]
pub struct Graph {
    inner: Arc<GraphData>,
}

#[derive(Clone, Default)]
struct GraphData {
    n: usize,
    edges: Vec<Edge>,
    /// adjacency[u] = sorted list of (neighbor, edge id)
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
    /// Lazily built CSR view of `adjacency`; reset on mutation.
    csr: OnceLock<CsrIndex>,
    /// Lazily computed [`Graph::min_cut`]; reset on mutation.
    min_cut: OnceLock<Vec<EdgeId>>,
    /// Lazily computed [`Graph::diameter`]; reset on mutation.
    diameter: OnceLock<Option<usize>>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = &*self.inner;
        f.debug_struct("Graph")
            .field("n", &g.n)
            .field("edges", &g.edges)
            .field("adjacency", &g.adjacency)
            .field("csr", &g.csr)
            .field("min_cut", &g.min_cut)
            .field("diameter", &g.diameter)
            .finish()
    }
}

impl Graph {
    /// Create a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            inner: Arc::new(GraphData {
                n,
                adjacency: vec![Vec::new(); n],
                ..GraphData::default()
            }),
        }
    }

    /// Build a graph from an edge list (duplicate and self-loop edges are ignored).
    pub fn from_edges(n: usize, edge_list: &[(NodeId, NodeId)]) -> Self {
        let mut g = Graph::new(n);
        for &(a, b) in edge_list {
            g.add_edge(a, b);
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inner.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.inner.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.inner.n
    }

    /// Slice of all edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.inner.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.inner.edges[e]
    }

    /// Add an undirected edge; returns its id, or the existing id if the edge
    /// is already present.  Self-loops are rejected.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `a == b`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        assert!(
            a < self.inner.n && b < self.inner.n,
            "endpoint out of range"
        );
        assert!(a != b, "self-loops are not allowed");
        if let Some(e) = self.edge_between(a, b) {
            return e;
        }
        let g = Arc::make_mut(&mut self.inner);
        let id = g.edges.len();
        g.edges.push(Edge::new(a, b));
        g.adjacency[a].push((b, id));
        g.adjacency[b].push((a, id));
        g.csr = OnceLock::new();
        g.min_cut = OnceLock::new();
        g.diameter = OnceLock::new();
        id
    }

    /// The compressed-sparse-row adjacency index, built lazily on first use
    /// and cached until the graph is mutated.  Hot round-engine loops iterate
    /// this instead of the per-node adjacency vectors.
    pub fn csr(&self) -> &CsrIndex {
        self.inner.csr.get_or_init(|| CsrIndex::build(&self.inner))
    }

    /// The edge ids of one global minimum edge cut, in increasing order (the
    /// edges leaving the residual source side of the smallest unit-capacity
    /// max flow from node 0 to any other node), computed on first use and
    /// cached until the graph is mutated.  Its length is the edge
    /// connectivity `λ` (0 for disconnected graphs and `n ≤ 1`), so every
    /// compiler that asks for `λ` or for the witness on one graph shares one
    /// `n − 1`-sink max-flow sweep.
    pub fn min_cut(&self) -> &[EdgeId] {
        self.inner
            .min_cut
            .get_or_init(|| crate::connectivity::min_edge_cut(self))
    }

    /// The exact diameter (maximum eccentricity, by BFS from every node):
    /// `None` for disconnected or empty graphs.  Computed on first use and
    /// cached until the graph is mutated.
    pub fn diameter(&self) -> Option<usize> {
        *self
            .inner
            .diameter
            .get_or_init(|| crate::traversal::all_pairs_diameter(self))
    }

    /// Neighbours of `u` together with the connecting edge ids.
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, EdgeId)] {
        &self.inner.adjacency[u]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.inner.adjacency[u].len()
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.inner.n).map(|u| self.degree(u)).min().unwrap_or(0)
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.inner.n).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Edge id between `a` and `b`, if present.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        if a >= self.inner.n || b >= self.inner.n {
            return None;
        }
        self.inner.adjacency[a]
            .iter()
            .find(|&&(v, _)| v == b)
            .map(|&(_, e)| e)
    }

    /// Whether `a` and `b` are adjacent.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_between(a, b).is_some()
    }

    /// Directed arc id for the edge `e` in the direction `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if `from`/`to` are not the endpoints of `e`.
    pub fn arc(&self, e: EdgeId, from: NodeId, to: NodeId) -> ArcId {
        let edge = self.inner.edges[e];
        assert!(
            (edge.u == from && edge.v == to) || (edge.u == to && edge.v == from),
            "arc endpoints {from}->{to} do not match edge {edge:?}"
        );
        if edge.u == from {
            2 * e
        } else {
            2 * e + 1
        }
    }

    /// Directed arc id from `from` to `to`, if the edge exists.
    pub fn arc_between(&self, from: NodeId, to: NodeId) -> Option<ArcId> {
        self.edge_between(from, to).map(|e| self.arc(e, from, to))
    }

    /// The two directed arcs of edge `e`, as `(forward, backward)`: the
    /// forward arc runs from the edge's smaller endpoint to the larger one.
    /// This is the one place the `2e` / `2e + 1` numbering convention lives;
    /// hot loops that would otherwise hardcode the arithmetic call this.
    #[inline]
    pub fn arcs_of(e: EdgeId) -> (ArcId, ArcId) {
        (2 * e, 2 * e + 1)
    }

    /// The edge an arc belongs to (inverse of [`Graph::arcs_of`]).
    #[inline]
    pub fn edge_of(arc: ArcId) -> EdgeId {
        arc / 2
    }

    /// The arc of the same edge that runs the other way.
    #[inline]
    pub fn reverse_arc(arc: ArcId) -> ArcId {
        arc ^ 1
    }

    /// The arcs `(a → b, b → a)` of the edge `e = {a, b}`, from the endpoint
    /// order alone (the forward arc leaves the smaller endpoint) — for scans
    /// of [`Graph::neighbors`], where `e` is known to join the two nodes.
    #[inline]
    pub(crate) fn arcs_from(a: NodeId, b: NodeId, e: EdgeId) -> (ArcId, ArcId) {
        let (fwd, bwd) = Graph::arcs_of(e);
        if a < b {
            (fwd, bwd)
        } else {
            (bwd, fwd)
        }
    }

    /// Decompose an arc id into `(edge, from, to)`.
    pub fn arc_endpoints(&self, arc: ArcId) -> (EdgeId, NodeId, NodeId) {
        let e = arc / 2;
        let edge = self.inner.edges[e];
        if arc.is_multiple_of(2) {
            (e, edge.u, edge.v)
        } else {
            (e, edge.v, edge.u)
        }
    }

    /// Total number of directed arcs (`2m`).
    pub fn arc_count(&self) -> usize {
        2 * self.inner.edges.len()
    }

    /// The subgraph induced by keeping only the given edges (same node set).
    pub fn edge_subgraph(&self, keep: &[EdgeId]) -> Graph {
        let mut g = Graph::new(self.inner.n);
        for &e in keep {
            let Edge { u, v } = self.inner.edges[e];
            g.add_edge(u, v);
        }
        g
    }

    /// The graph obtained by removing the given edges (same node set).
    pub fn remove_edges(&self, remove: &[EdgeId]) -> Graph {
        let removed: BTreeSet<EdgeId> = remove.iter().copied().collect();
        let mut g = Graph::new(self.inner.n);
        for (id, &Edge { u, v }) in self.inner.edges.iter().enumerate() {
            if !removed.contains(&id) {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// All edges incident to node `u`.
    pub fn incident_edges(&self, u: NodeId) -> Vec<EdgeId> {
        self.inner.adjacency[u].iter().map(|&(_, e)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_normalisation_and_other() {
        let e = Edge::new(5, 2);
        assert_eq!(e, Edge { u: 2, v: 5 });
        assert_eq!(e.other(2), 5);
        assert_eq!(e.other(5), 2);
        assert!(e.touches(2) && e.touches(5) && !e.touches(3));
    }

    #[test]
    #[should_panic]
    fn other_panics_for_non_endpoint() {
        Edge::new(0, 1).other(2);
    }

    #[test]
    fn build_triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut g = Graph::new(2);
        let e1 = g.add_edge(0, 1);
        let e2 = g.add_edge(1, 0);
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    fn arcs_roundtrip() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 1), (3, 0)]);
        for e in 0..g.edge_count() {
            let Edge { u, v } = g.edge(e);
            let a_uv = g.arc(e, u, v);
            let a_vu = g.arc(e, v, u);
            assert_ne!(a_uv, a_vu);
            assert_eq!(g.arc_endpoints(a_uv), (e, u, v));
            assert_eq!(g.arc_endpoints(a_vu), (e, v, u));
            assert_eq!(Graph::reverse_arc(a_uv), a_vu);
            assert_eq!(Graph::reverse_arc(a_vu), a_uv);
            assert_eq!(Graph::arcs_from(u, v, e), (a_uv, a_vu));
            assert_eq!(Graph::arcs_from(v, u, e), (a_vu, a_uv));
        }
        assert_eq!(g.arc_count(), 6);
        assert_eq!(g.arc_between(1, 2), Some(g.arc(1, 1, 2)));
        assert_eq!(g.arc_between(0, 2), None);
    }

    #[test]
    fn csr_matches_adjacency_and_arcs() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 1), (4, 0)]);
        let csr = g.csr();
        assert_eq!(csr.node_count(), 5);
        assert_eq!(csr.entries().len(), 2 * g.edge_count());
        for v in g.nodes() {
            let entries = csr.neighbors(v);
            assert_eq!(entries.len(), g.degree(v));
            assert_eq!(csr.degree(v), g.degree(v));
            for (entry, &(u, e)) in entries.iter().zip(g.neighbors(v)) {
                assert_eq!(entry.neighbor, u);
                assert_eq!(entry.edge, e);
                assert_eq!(entry.arc_out, g.arc(e, v, u));
                assert_eq!(entry.arc_in, g.arc(e, u, v));
            }
        }
    }

    #[test]
    fn csr_is_invalidated_by_mutation() {
        let mut g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(g.csr().degree(2), 0);
        g.add_edge(1, 2);
        assert_eq!(g.csr().degree(2), 1);
        assert_eq!(g.csr().neighbors(2)[0].neighbor, 1);
        // A clone sees the same (consistent) index.
        let h = g.clone();
        assert_eq!(h.csr().entries().len(), 4);
    }

    #[test]
    fn structural_memos_are_invalidated_by_mutation() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!((g.min_cut().len(), g.diameter()), (1, Some(3)));
        g.add_edge(3, 0);
        assert_eq!((g.min_cut().len(), g.diameter()), (2, Some(2)));
        // Re-adding an edge that exists changes nothing.
        g.add_edge(0, 3);
        assert_eq!((g.min_cut().len(), g.diameter()), (2, Some(2)));
        // A clone shares the data and the memos until it mutates: then it
        // copies the data, resets its own memos and leaves the original's
        // data and memos as they were.
        let h = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!((h.min_cut().len(), h.diameter()), (1, Some(2)));
        let (csr, cut) = (h.csr() as *const CsrIndex, h.min_cut() as *const [EdgeId]);
        let mut grown = h.clone();
        grown.add_edge(2, 0);
        assert_eq!((grown.min_cut().len(), grown.diameter()), (2, Some(1)));
        assert_eq!(grown.csr().entries().len(), 6);
        assert_eq!(
            (h.edge_count(), h.degree(2), h.csr().entries().len()),
            (2, 1, 4)
        );
        assert_eq!((h.min_cut().len(), h.diameter()), (1, Some(2)));
        assert!(std::ptr::eq(h.csr(), csr) && std::ptr::eq(h.min_cut(), cut));
    }

    #[test]
    fn clones_share_one_memo_set() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (csr, cut) = (g.csr(), g.min_cut());
        let h = g.clone();
        assert!(std::ptr::eq(h.csr(), csr));
        assert!(std::ptr::eq(h.min_cut(), cut));
        // A memo a clone fills is the original's too.
        let d = h.clone().diameter();
        assert_eq!(d, Some(2));
        assert_eq!(g.inner.diameter.get(), Some(&d));
    }

    #[test]
    fn memos_filled_by_racing_clones_equal_the_single_thread_values() {
        let build = || crate::generators::torus(6, 7);
        let solo = build();
        let expected = (
            solo.diameter(),
            solo.min_cut().to_vec(),
            solo.csr().entries().to_vec(),
        );
        let g = build();
        let clones: Vec<Graph> = (0..8).map(|_| g.clone()).collect();
        let answers: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = clones
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    s.spawn(move || {
                        // Half the threads ask in the other order, so the
                        // first fill of every memo races against the others.
                        if i % 2 == 0 {
                            let d = g.diameter();
                            (d, g.min_cut(), g.csr())
                        } else {
                            let csr = g.csr();
                            let cut = g.min_cut();
                            (g.diameter(), cut, csr)
                        }
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (d, cut, csr) in answers {
            assert_eq!((d, cut.to_vec(), csr.entries().to_vec()), expected);
            assert!(std::ptr::eq(csr, g.csr()) && std::ptr::eq(cut, g.min_cut()));
        }
    }

    #[test]
    fn subgraph_operations() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let sub = g.edge_subgraph(&[0, 2]);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.has_edge(0, 1) && sub.has_edge(2, 3));
        let rem = g.remove_edges(&[0]);
        assert_eq!(rem.edge_count(), 3);
        assert!(!rem.has_edge(0, 1));
    }
}
