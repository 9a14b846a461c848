//! Rooted spanning trees and subtrees.
//!
//! The byzantine compilers aggregate sketches *up* trees and broadcast
//! corrections *down* trees, so the tree representation keeps, for every node,
//! its parent, its children and its depth — exactly the "distributed knowledge"
//! the paper assumes ("each node knows its parent in each of the trees").

use crate::graph::{EdgeId, Graph, NodeId};
use crate::traversal::bfs;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A rooted spanning tree (or forest fragment) of a host graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    /// The root node.
    pub root: NodeId,
    /// `parent[v]` = parent of `v`, `None` for the root and for nodes not in the tree.
    pub parent: Vec<Option<NodeId>>,
    /// `in_tree[v]` = whether the node participates in this tree.
    pub in_tree: Vec<bool>,
    /// Edge ids (in the host graph) used by the tree.
    pub edges: Vec<EdgeId>,
}

impl RootedTree {
    /// Build a rooted tree from a parent vector.  Nodes with `parent == None`
    /// other than the root are treated as not in the tree.
    ///
    /// # Panics
    ///
    /// Panics if a parent pointer refers to an edge that does not exist in `g`.
    pub fn from_parents(g: &Graph, root: NodeId, parent: Vec<Option<NodeId>>) -> Self {
        let n = g.node_count();
        assert_eq!(parent.len(), n);
        let mut in_tree = vec![false; n];
        let mut edges = Vec::new();
        in_tree[root] = true;
        for v in 0..n {
            if v == root {
                continue;
            }
            if let Some(p) = parent[v] {
                let e = g
                    .edge_between(v, p)
                    .unwrap_or_else(|| panic!("tree edge ({v},{p}) not in host graph"));
                edges.push(e);
                in_tree[v] = true;
            }
        }
        RootedTree {
            root,
            parent,
            in_tree,
            edges,
        }
    }

    /// Number of nodes participating in the tree.
    pub fn size(&self) -> usize {
        self.in_tree.iter().filter(|&&b| b).count()
    }

    /// Whether the tree spans all nodes of the host graph **and** every
    /// non-root node's parent chain reaches the root.
    pub fn is_spanning(&self, g: &Graph) -> bool {
        if self.size() != g.node_count() {
            return false;
        }
        // Verify that following parents from every node reaches the root without cycles.
        for v in g.nodes() {
            let mut cur = v;
            let mut steps = 0;
            while cur != self.root {
                match self.parent[cur] {
                    Some(p) => cur = p,
                    None => return false,
                }
                steps += 1;
                if steps > g.node_count() {
                    return false;
                }
            }
        }
        true
    }

    /// Depth of each node (root = 0); `None` for nodes not in the tree or whose
    /// parent chain does not reach the root.
    pub fn depths(&self) -> Vec<Option<usize>> {
        let n = self.parent.len();
        let mut depth = vec![None; n];
        depth[self.root] = Some(0);
        // Iterate until fixpoint (tree height ≤ n).
        for _ in 0..n {
            let mut changed = false;
            for v in 0..n {
                if depth[v].is_some() || !self.in_tree[v] {
                    continue;
                }
                if let Some(p) = self.parent[v] {
                    if let Some(dp) = depth[p] {
                        depth[v] = Some(dp + 1);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        depth
    }

    /// Height of the tree (maximum depth of a node in the tree).
    pub fn height(&self) -> usize {
        self.depths().into_iter().flatten().max().unwrap_or(0)
    }

    /// Children lists, indexed by node.
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let n = self.parent.len();
        let mut ch = vec![Vec::new(); n];
        for v in 0..n {
            if !self.in_tree[v] || v == self.root {
                continue;
            }
            if let Some(p) = self.parent[v] {
                ch[p].push(v);
            }
        }
        ch
    }

    /// Whether the given host-graph edge is used by this tree.
    pub fn uses_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }
}

/// Build the BFS spanning tree of the component of `root`.
pub fn bfs_tree(g: &Graph, root: NodeId) -> RootedTree {
    let r = bfs(g, root);
    RootedTree::from_parents(g, root, r.parent)
}

/// Build an approximate minimum-cost depth-bounded spanning tree by Prim-style
/// growth: repeatedly attach the out-of-tree node whose cheapest connection to
/// an in-tree node of depth `< max_depth` is minimal — ties to the smaller
/// in-tree node, then to the earlier entry of its neighbour list.
///
/// This is the "min-cost `d`-depth spanning tree" primitive of the paper's
/// Appendix C (there solved with the O(log n)-approximation of Ghaffari'15; a
/// greedy Prim variant reproduces the same qualitative trade-off: low total
/// load at bounded depth).  Nodes unreachable within the depth budget are left
/// out of the tree.
///
/// The candidate edges wait in a binary heap keyed by exactly that order —
/// (weight, in-tree node, position in its neighbour list), packed into one
/// `u128` — with lazy deletion: an out-of-tree node keeps the smallest key
/// offered to it so far, an edge is pushed only when it improves on that, and
/// an entry that no longer is its node's best surfaces and is discarded.  One
/// tree costs `O(m log m)`.  Weights are expected finite and positive (the
/// packings' `a^{load/η}`); they are ordered by [`f64::total_cmp`], which
/// agrees with `<` on such values.
///
/// # Panics
///
/// Panics if `weight.len() != g.edge_count()`.
pub fn min_cost_depth_bounded_tree(
    g: &Graph,
    root: NodeId,
    weight: &[f64],
    max_depth: usize,
) -> RootedTree {
    assert_eq!(weight.len(), g.edge_count());
    let n = g.node_count();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut depth: Vec<Option<usize>> = vec![None; n];
    // Per node: the tree edge to its parent.
    let mut up_edge: Vec<Option<EdgeId>> = vec![None; n];
    // Per out-of-tree node: the smallest candidate key offered to it so far.
    let mut best = vec![u128::MAX; n];
    let mut heap = BinaryHeap::new();
    depth[root] = Some(0);
    let mut attached = Some(root);
    while let Some(u) = attached {
        let du = depth[u].expect("attached nodes have a depth");
        if du < max_depth {
            for (pos, &(v, e)) in g.neighbors(u).iter().enumerate() {
                let key = candidate_key(weight[e], u, pos);
                if depth[v].is_none() && key < best[v] {
                    best[v] = key;
                    heap.push(Reverse((key, v)));
                }
            }
        }
        attached = std::iter::from_fn(|| heap.pop())
            .find(|&Reverse((key, v))| depth[v].is_none() && best[v] == key)
            .map(|Reverse((key, v))| {
                let (u, pos) = ((key >> 32) as u32 as usize, key as u32 as usize);
                let dv = depth[u].expect("only in-tree nodes offer edges") + 1;
                (parent[v], depth[v], up_edge[v]) =
                    (Some(u), Some(dv), Some(g.neighbors(u)[pos].1));
                v
            });
    }
    RootedTree {
        root,
        in_tree: depth.iter().map(Option::is_some).collect(),
        edges: up_edge.into_iter().flatten().collect(),
        parent,
    }
}

/// The heap key of the edge at position `pos` of in-tree node `u`'s
/// neighbour list, of weight `w`: `w`'s place in [`f64::total_cmp`] order
/// (the transformation `total_cmp` itself applies, shifted to unsigned), then
/// `u`, then `pos`.
fn candidate_key(w: f64, u: NodeId, pos: usize) -> u128 {
    let bits = w.to_bits() as i64;
    let order = (bits ^ ((((bits >> 63) as u64) >> 1) as i64)) as u64 ^ (1 << 63);
    debug_assert!(u <= u32::MAX as usize && pos <= u32::MAX as usize);
    (u128::from(order) << 64) | ((u as u128) << 32) | pos as u128
}

/// Build the BFS tree of a *subgraph* described by a set of edges, rooted at
/// `root`.  Nodes unreachable within the subgraph are left out of the tree.
#[cfg(test)]
pub(crate) fn subgraph_bfs_tree(g: &Graph, edges: &[EdgeId], root: NodeId) -> RootedTree {
    let n = g.node_count();
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &e in edges {
        let edge = g.edge(e);
        adj[edge.u].push(edge.v);
        adj[edge.v].push(edge.u);
    }
    let mut parent = vec![None; n];
    let mut seen = vec![false; n];
    seen[root] = true;
    let mut q = std::collections::VecDeque::new();
    q.push_back(root);
    while let Some(u) = q.pop_front() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                q.push_back(v);
            }
        }
    }
    RootedTree::from_parents(g, root, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_tree_spans_connected_graph() {
        let g = generators::grid(3, 3);
        let t = bfs_tree(&g, 0);
        assert!(t.is_spanning(&g));
        assert_eq!(t.size(), 9);
        assert_eq!(t.height(), 4);
        assert_eq!(t.edges.len(), 8);
    }

    #[test]
    fn bfs_tree_on_disconnected_graph_is_partial() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let t = bfs_tree(&g, 0);
        assert!(!t.is_spanning(&g));
        assert_eq!(t.size(), 2);
    }

    #[test]
    fn depths_children_and_orders_consistent() {
        let g = generators::path(5);
        let t = bfs_tree(&g, 2);
        let d = t.depths();
        assert_eq!(d[2], Some(0));
        assert_eq!(d[0], Some(2));
        assert_eq!(d[4], Some(2));
        let ch = t.children();
        assert_eq!(ch[2].len(), 2);
    }

    /// The Prim scan the heap replaced, kept as the oracle: per attached node,
    /// reread every in-tree adjacency list for the cheapest edge out (strict
    /// `<`, so the first minimum in node order, then neighbour order, wins).
    fn min_cost_tree_by_scan(
        g: &Graph,
        root: NodeId,
        weight: &[f64],
        max_depth: usize,
    ) -> RootedTree {
        let n = g.node_count();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut depth: Vec<Option<usize>> = vec![None; n];
        depth[root] = Some(0);
        for _ in 1..n {
            let mut best: Option<(f64, NodeId, NodeId)> = None;
            for u in 0..n {
                let Some(du) = depth[u] else { continue };
                if du >= max_depth {
                    continue;
                }
                for &(v, e) in g.neighbors(u) {
                    if depth[v].is_some() {
                        continue;
                    }
                    if best.is_none_or(|(bc, _, _)| weight[e] < bc) {
                        best = Some((weight[e], u, v));
                    }
                }
            }
            let Some((_, u, v)) = best else { break };
            parent[v] = Some(u);
            depth[v] = Some(depth[u].unwrap() + 1);
        }
        RootedTree::from_parents(g, root, parent)
    }

    #[test]
    fn the_heap_tree_is_the_scan_tree() {
        let mut graphs = generators::test_zoo();
        graphs.extend([
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]),
            Graph::new(1),
            generators::path(2),
            generators::complete(3),
        ]);
        let mut compared = 0;
        for g in &graphs {
            let n = g.node_count();
            let diam = g.diameter().unwrap_or(n);
            // Loads as a greedy packing accumulates them, so the integer-load
            // weights `8^(l/2)` tie on most edges; then a scrambled load.
            let mut load = vec![0usize; g.edge_count()];
            for trees in 0..8 {
                if trees == 7 {
                    load = (0..g.edge_count()).map(|e| (e * 7 + 3) % 5).collect();
                }
                let weight: Vec<f64> = load.iter().map(|&l| 8f64.powf(l as f64 / 2.0)).collect();
                for root in [0, n / 2] {
                    for budget in [1, 2, diam, 2 * diam + 2, n] {
                        let heap = min_cost_depth_bounded_tree(g, root, &weight, budget);
                        let scan = min_cost_tree_by_scan(g, root, &weight, budget);
                        assert_eq!(heap, scan, "n = {n}, root {root}, budget {budget}");
                        compared += 1;
                    }
                }
                let tree = min_cost_depth_bounded_tree(g, 0, &weight, 2 * diam + 2);
                for &e in &tree.edges {
                    load[e] += 1;
                }
            }
        }
        assert_eq!(compared, graphs.len() * 8 * 2 * 5);
    }

    #[test]
    fn subgraph_tree_restricted_to_edges() {
        let g = generators::cycle(6);
        // Use only half of the cycle's edges: a path 0-1-2-3.
        let es: Vec<_> = [(0, 1), (1, 2), (2, 3)]
            .iter()
            .map(|&(a, b)| g.edge_between(a, b).unwrap())
            .collect();
        let t = subgraph_bfs_tree(&g, &es, 0);
        assert_eq!(t.size(), 4);
        assert!(!t.in_tree[4]);
        assert!(!t.is_spanning(&g));
    }

    #[test]
    fn from_parents_rejects_non_edges() {
        let g = generators::path(3);
        let bad_parent = vec![None, Some(0), Some(0)]; // (2,0) is not an edge
        let result = std::panic::catch_unwind(|| RootedTree::from_parents(&g, 0, bad_parent));
        assert!(result.is_err());
    }
}
