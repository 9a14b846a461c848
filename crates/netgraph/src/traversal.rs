//! Breadth-first traversal, connectivity and distance utilities.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Result of a BFS from a single source.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `dist[v]` = hop distance from the source, or `None` if unreachable.
    pub dist: Vec<Option<usize>>,
    /// `parent[v]` = predecessor on a shortest path, `None` for the source and
    /// unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
}

impl BfsResult {
    /// Shortest path from the source to `target` (inclusive of both endpoints),
    /// or `None` if unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        self.dist[target]?;
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Eccentricity of the source restricted to its connected component.
    pub fn eccentricity(&self) -> usize {
        self.dist.iter().flatten().copied().max().unwrap_or(0)
    }
}

/// Breadth-first search from `source`.
pub fn bfs(g: &Graph, source: NodeId) -> BfsResult {
    let n = g.node_count();
    let mut dist = vec![None; n];
    let mut parent = vec![None; n];
    let mut queue = VecDeque::new();
    dist[source] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].unwrap();
        for &(v, _) in g.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    BfsResult { dist, parent }
}

/// Whether the graph is connected (the empty graph is considered connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    bfs(g, 0).dist.iter().all(|d| d.is_some())
}

/// The exact diameter (maximum eccentricity) of a connected graph, computed by
/// all-sources BFS, or `None` if the graph is disconnected or empty — the
/// computation behind the graph's memo, [`Graph::diameter`].
pub(crate) fn all_pairs_diameter(g: &Graph) -> Option<usize> {
    if g.node_count() == 0 || !is_connected(g) {
        return None;
    }
    Some(
        (0..g.node_count())
            .map(|s| bfs(g, s).eccentricity())
            .max()
            .unwrap_or(0),
    )
}

/// Hop distance between two nodes, if connected.
pub fn distance(g: &Graph, a: NodeId, b: NodeId) -> Option<usize> {
    bfs(g, a).dist[b]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(r.path_to(4).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.eccentricity(), 4);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let r = bfs(&g, 0);
        assert_eq!(r.dist[3], None);
        assert_eq!(r.path_to(3), None);
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(generators::path(6).diameter(), Some(5));
        assert_eq!(generators::cycle(6).diameter(), Some(3));
        assert_eq!(generators::complete(6).diameter(), Some(1));
        assert_eq!(generators::grid(3, 3).diameter(), Some(4));
        assert_eq!(generators::hypercube(4).diameter(), Some(4));
        assert_eq!(Graph::from_edges(3, &[(0, 1)]).diameter(), None);
    }

    #[test]
    fn the_memo_is_the_all_pairs_diameter() {
        for g in generators::test_zoo()
            .into_iter()
            .chain([Graph::from_edges(4, &[(0, 1), (2, 3)]), Graph::new(1)])
        {
            assert_eq!(g.diameter(), all_pairs_diameter(&g));
        }
    }

    #[test]
    fn distance_symmetric() {
        let g = generators::grid(4, 4);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(distance(&g, a, b), distance(&g, b, a));
            }
        }
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::new(0);
        assert!(is_connected(&g));
        assert_eq!(g.diameter(), None);
    }
}
