//! Fault-tolerant (FT) cycle covers (Definition 8, Section 5 of the paper).
//!
//! A `k`-FT `(cong, dilation)` cycle cover supplies, for every edge `(u, v)`,
//! a set of `k` edge-disjoint `u`–`v` paths (one of which may be the edge
//! itself) of length at most `dilation`, such that every edge of the graph
//! appears on at most `cong` paths overall.  The Theorem 1.4 compiler floods
//! each payload message along all paths of its edge's path system and takes a
//! majority at the receiver; the *good cycle colouring* of Lemma 5.2 schedules
//! path systems so that systems processed together never share an edge.

use crate::connectivity::MaxFlow;
use crate::graph::{EdgeId, Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// A fault-tolerant cycle cover: a path system per edge.
#[derive(Debug, Clone)]
pub struct FtCycleCover {
    /// For every covered edge id: the `u`→`v` paths (node sequences, starting at
    /// the edge's smaller endpoint `u` and ending at `v`).
    pub paths: BTreeMap<EdgeId, Vec<Vec<NodeId>>>,
}

impl FtCycleCover {
    /// Build a `k`-FT cycle cover by computing, for every edge `(u, v)`, up to
    /// `k` edge-disjoint `u`–`v` paths with a max-flow that prefers short
    /// augmenting paths.
    ///
    /// Returns `None` if some edge does not admit `k` edge-disjoint paths
    /// between its endpoints (i.e. the graph is not `k`-edge-connected).
    pub fn build(g: &Graph, k: usize) -> Option<Self> {
        let mut paths = BTreeMap::new();
        let mut flow = MaxFlow::default();
        for (id, e) in g.edges().iter().enumerate() {
            let ps = flow.disjoint_paths(g, e.u, e.v, k);
            if ps.len() < k {
                return None;
            }
            paths.insert(id, ps);
        }
        Some(FtCycleCover { paths })
    }

    /// Number of paths provided per edge (the `k` parameter), assuming a
    /// uniform cover; returns 0 for an empty cover.
    pub fn paths_per_edge(&self) -> usize {
        self.paths.values().map(|p| p.len()).min().unwrap_or(0)
    }

    /// Dilation: the maximum path length (in hops) over all path systems.
    pub fn dilation(&self) -> usize {
        self.paths
            .values()
            .flat_map(|ps| ps.iter().map(|p| p.len().saturating_sub(1)))
            .max()
            .unwrap_or(0)
    }

    /// Congestion: the maximum, over graph edges, of the number of paths (over
    /// all path systems) that traverse the edge.
    pub fn congestion(&self, g: &Graph) -> usize {
        let mut count = vec![0usize; g.edge_count()];
        for ps in self.paths.values() {
            for p in ps {
                for w in p.windows(2) {
                    if let Some(e) = g.edge_between(w[0], w[1]) {
                        count[e] += 1;
                    }
                }
            }
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// The set of edges traversed by any path in the path system of `e`.
    pub fn support_of(&self, g: &Graph, e: EdgeId) -> BTreeSet<EdgeId> {
        let mut s = BTreeSet::new();
        if let Some(ps) = self.paths.get(&e) {
            for p in ps {
                for w in p.windows(2) {
                    if let Some(id) = g.edge_between(w[0], w[1]) {
                        s.insert(id);
                    }
                }
            }
        }
        s
    }

    /// Verify that, for every edge, the provided paths are pairwise
    /// edge-disjoint, start/end at the right endpoints and are walks in `g`.
    pub fn verify(&self, g: &Graph) -> bool {
        for (&eid, ps) in &self.paths {
            let edge = g.edge(eid);
            let mut used = BTreeSet::new();
            for p in ps {
                if p.first() != Some(&edge.u) || p.last() != Some(&edge.v) {
                    return false;
                }
                for w in p.windows(2) {
                    let Some(id) = g.edge_between(w[0], w[1]) else {
                        return false;
                    };
                    if !used.insert(id) {
                        return false; // edge reused within the same path system
                    }
                }
            }
        }
        true
    }

    /// A *good cycle colouring* (Lemma 5.2): assign every covered edge a colour
    /// such that two edges with the same colour have edge-disjoint path systems.
    /// Greedy colouring of the path-conflict graph in ascending edge id, each
    /// edge taking the smallest colour no conflicting edge holds yet; the
    /// number of colours is at most `max_conflict_degree + 1 ≤ k·dilation·cong + 1`.
    ///
    /// The conflict graph is never materialised.  Each graph edge keeps the
    /// colours of the systems coloured so far that traverse it (pairwise
    /// distinct, since those systems conflict), and two stamp arrays stand in
    /// for the sets: "seen by this edge" deduplicates an edge's support,
    /// "colour taken by this edge" collects what its conflicts hold.
    pub fn good_coloring(&self, g: &Graph) -> BTreeMap<EdgeId, usize> {
        let mut colors_on: Vec<Vec<usize>> = vec![Vec::new(); g.edge_count()];
        let mut seen_by = vec![usize::MAX; g.edge_count()];
        // One colour per covered edge at most, so one slot more is never taken.
        let mut taken_by = vec![usize::MAX; self.paths.len() + 1];
        let mut support: Vec<EdgeId> = Vec::new();
        let mut coloring = BTreeMap::new();
        for (i, (&eid, ps)) in self.paths.iter().enumerate() {
            support.clear();
            for w in ps.iter().flat_map(|p| p.windows(2)) {
                let Some(s) = g.edge_between(w[0], w[1]) else {
                    continue;
                };
                if seen_by[s] != i {
                    seen_by[s] = i;
                    support.push(s);
                    for &c in &colors_on[s] {
                        taken_by[c] = i;
                    }
                }
            }
            let free = taken_by.iter().position(|&t| t != i);
            let c = free.expect("more slots than covered edges");
            for &s in &support {
                colors_on[s].push(c);
            }
            coloring.insert(eid, c);
        }
        coloring
    }
}

/// Verify that a colouring is a good cycle colouring for the cover: same-colour
/// edges have pairwise edge-disjoint path systems.
pub fn verify_good_coloring(
    cover: &FtCycleCover,
    g: &Graph,
    coloring: &BTreeMap<EdgeId, usize>,
) -> bool {
    let ids: Vec<EdgeId> = cover.paths.keys().copied().collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in ids.iter().skip(i + 1) {
            if coloring.get(&a) == coloring.get(&b) {
                let sa = cover.support_of(g, a);
                let sb = cover.support_of(g, b);
                if sa.intersection(&sb).next().is_some() {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, GraphDef};

    /// The colouring as it was computed before the stamp arrays: the
    /// materialised conflict graph, coloured greedily in ascending edge id.
    /// Kept as the oracle [`FtCycleCover::good_coloring`] must reproduce —
    /// the colour count is part of every cycle-cover report.
    fn good_coloring_oracle(cover: &FtCycleCover, g: &Graph) -> BTreeMap<EdgeId, usize> {
        let mut users: Vec<Vec<EdgeId>> = vec![Vec::new(); g.edge_count()];
        for &eid in cover.paths.keys() {
            for s in cover.support_of(g, eid) {
                users[s].push(eid);
            }
        }
        let mut conflicts: BTreeMap<EdgeId, BTreeSet<EdgeId>> = BTreeMap::new();
        for list in &users {
            for &a in list {
                for &b in list {
                    if a != b {
                        conflicts.entry(a).or_default().insert(b);
                    }
                }
            }
        }
        let mut coloring: BTreeMap<EdgeId, usize> = BTreeMap::new();
        for &eid in cover.paths.keys() {
            let taken: BTreeSet<usize> = conflicts
                .get(&eid)
                .map(|ns| ns.iter().filter_map(|n| coloring.get(n)).copied().collect())
                .unwrap_or_default();
            let mut c = 0;
            while taken.contains(&c) {
                c += 1;
            }
            coloring.insert(eid, c);
        }
        coloring
    }

    #[test]
    fn good_coloring_matches_the_conflict_graph_oracle_on_the_zoo() {
        // The campaign zoo (`graph_zoo_defs(2024)`) plus a partial cover.
        let zoo = [
            GraphDef::complete(12),
            GraphDef::circulant(18, 4),
            GraphDef::grid(4, 4),
            GraphDef::torus(4, 5),
            GraphDef::expander(24, 8, 2024),
            GraphDef::watts_strogatz(24, 6, 0.2, 2024 ^ 0x5A11),
            GraphDef::ring_of_cliques(4, 5),
            GraphDef::barbell(5, 2),
        ];
        let mut covers = 0;
        for def in zoo {
            let g = def.build().expect("zoo defs are valid");
            for k in 1..=3 {
                let Some(mut cover) = FtCycleCover::build(&g, k) else {
                    continue;
                };
                let coloring = cover.good_coloring(&g);
                assert_eq!(coloring, good_coloring_oracle(&cover, &g), "{def:?} k={k}");
                assert!(verify_good_coloring(&cover, &g, &coloring));
                // Covered ids need not be dense.
                cover.paths.retain(|eid, _| eid % 3 != 1);
                let partial = cover.good_coloring(&g);
                assert_eq!(partial, good_coloring_oracle(&cover, &g), "{def:?} partial");
                covers += 1;
            }
        }
        assert!(covers >= 16, "only {covers} covers built");
    }

    #[test]
    fn cycle_cover_on_cycle_graph() {
        let g = generators::cycle(6);
        let cover = FtCycleCover::build(&g, 2).unwrap();
        assert!(cover.verify(&g));
        assert_eq!(cover.paths_per_edge(), 2);
        assert_eq!(cover.dilation(), 5); // the long way around
                                         // Requesting more paths than the connectivity allows fails.
        assert!(FtCycleCover::build(&g, 3).is_none());
    }

    #[test]
    fn cycle_cover_on_clique() {
        let g = generators::complete(6);
        let cover = FtCycleCover::build(&g, 5).unwrap();
        assert!(cover.verify(&g));
        assert_eq!(cover.paths_per_edge(), 5);
        assert!(cover.dilation() <= 3);
        assert!(cover.congestion(&g) >= 1);
    }

    #[test]
    fn cover_congestion_counts_shared_edges() {
        let g = generators::cycle(4);
        let cover = FtCycleCover::build(&g, 2).unwrap();
        // Each edge's system uses the whole cycle, so every edge is used by
        // every system: congestion = number of edges = 4... (each of the 4
        // systems uses each edge exactly once).
        assert_eq!(cover.congestion(&g), 4);
    }

    #[test]
    fn good_coloring_is_valid() {
        let g = generators::circulant(9, 2); // 4-edge-connected
        let cover = FtCycleCover::build(&g, 3).unwrap();
        assert!(cover.verify(&g));
        let coloring = cover.good_coloring(&g);
        assert_eq!(coloring.len(), g.edge_count());
        assert!(verify_good_coloring(&cover, &g, &coloring));
    }

    #[test]
    fn good_coloring_detects_bad_coloring() {
        let g = generators::cycle(5);
        let cover = FtCycleCover::build(&g, 2).unwrap();
        // All edges the same colour is definitely not a good colouring here
        // because all systems share the cycle edges.
        let bad: BTreeMap<EdgeId, usize> = (0..g.edge_count()).map(|e| (e, 0)).collect();
        assert!(!verify_good_coloring(&cover, &g, &bad));
    }

    #[test]
    fn support_of_contains_own_edge() {
        let g = generators::complete(5);
        let cover = FtCycleCover::build(&g, 3).unwrap();
        for e in 0..g.edge_count() {
            let sup = cover.support_of(&g, e);
            assert!(
                sup.contains(&e),
                "direct edge should be one of the disjoint paths"
            );
        }
    }
}
