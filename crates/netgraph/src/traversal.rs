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

/// The exact diameter (maximum eccentricity) of a connected graph, or `None`
/// if the graph is disconnected or empty — the computation behind the
/// graph's memo, [`Graph::diameter`].
///
/// Sixty-four sources at a time, bit-parallel: bit `i` of a node's word
/// stands for source `i` of the batch.  Each pass pushes the nodes that some
/// source reached in the last pass to their neighbours, keeping the sources
/// that had not reached a neighbour yet, so a pass takes every source of the
/// batch one hop further, and the batch's largest eccentricity is its number
/// of passes that reached a node.  A node is pushed once per distinct
/// distance from the batch, so a batch costs at most what its sixty-four
/// breadth-first searches would, and a graph of small diameter far less.  A
/// node that some source never reached means the graph is disconnected.
pub(crate) fn all_pairs_diameter(g: &Graph) -> Option<usize> {
    let n = g.node_count();
    if n == 0 {
        return None;
    }
    let csr = g.csr();
    // Per node: the batch's sources that reached it, those that reached it
    // in the last pass, and those that reach it in this one.
    let (mut seen, mut frontier, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let (mut active, mut reached) = (Vec::new(), Vec::new());
    let mut diameter = 0;
    for first in (0..n).step_by(64) {
        let sources = first..n.min(first + 64);
        let everyone = u64::MAX >> (64 - sources.len());
        seen.fill(0);
        active.clear();
        for (i, s) in sources.enumerate() {
            (seen[s], frontier[s]) = (1 << i, 1 << i);
            active.push(s);
        }
        let mut passes = 0;
        loop {
            for &u in &active {
                let pushed = std::mem::take(&mut frontier[u]);
                for entry in csr.neighbors(u) {
                    let v = entry.neighbor;
                    let new = pushed & !seen[v];
                    if new != 0 {
                        if next[v] == 0 {
                            reached.push(v);
                        }
                        next[v] |= new;
                    }
                }
            }
            if reached.is_empty() {
                break;
            }
            passes += 1;
            for &v in &reached {
                seen[v] |= next[v];
                frontier[v] = std::mem::take(&mut next[v]);
            }
            std::mem::swap(&mut active, &mut reached);
            reached.clear();
        }
        if seen.iter().any(|&s| s != everyone) {
            return None;
        }
        diameter = diameter.max(passes);
    }
    Some(diameter)
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

    /// The diameter as `n` breadth-first searches: the largest eccentricity,
    /// `None` when a search misses a node.
    fn bfs_diameter(g: &Graph) -> Option<usize> {
        if g.node_count() == 0 || !is_connected(g) {
            return None;
        }
        g.nodes().map(|s| bfs(g, s).eccentricity()).max()
    }

    /// The bit-parallel sweep against the `n`-BFS oracle on random graphs
    /// past one word of nodes (`n` up to 200, sparse enough that some are
    /// disconnected and some long), and on unions of two such graphs, which
    /// are always disconnected.
    #[test]
    fn the_sweep_is_the_bfs_eccentricity_maximum() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xD1A);
        let (mut connected, mut disconnected, mut multi_word) = (0, 0, 0);
        for case in 0..60 {
            let n = rng.gen_range(1..200usize);
            let p = rng.gen_range(1.0..4.0) / n as f64;
            let mut g = generators::erdos_renyi(&mut rng, n, p.min(1.0));
            if case % 4 == 3 {
                // A second component, always.
                let other = generators::cycle(rng.gen_range(3..70usize));
                let mut union = Graph::new(n + other.node_count());
                for e in g.edges().iter() {
                    union.add_edge(e.u, e.v);
                }
                for e in other.edges().iter() {
                    union.add_edge(n + e.u, n + e.v);
                }
                g = union;
            }
            let want = bfs_diameter(&g);
            assert_eq!(
                all_pairs_diameter(&g),
                want,
                "case {case}: n {}",
                g.node_count()
            );
            multi_word += usize::from(g.node_count() > 64);
            match want {
                Some(_) => connected += 1,
                None => disconnected += 1,
            }
        }
        for g in [
            generators::path(130),
            generators::cycle(65),
            generators::grid(9, 9),
        ] {
            assert_eq!(all_pairs_diameter(&g), bfs_diameter(&g));
            connected += 1;
        }
        assert!(connected >= 10 && disconnected >= 10 && multi_word >= 20);
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
