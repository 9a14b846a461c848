//! Edge connectivity, edge-disjoint paths and conductance.
//!
//! The paper's results are parameterised by structural quantities of the
//! communication graph:
//!
//! * **edge connectivity** `λ(G)` — eavesdropper security needs `f + 1`,
//!   byzantine resilience needs `2f + 1` (general graphs) or `Ω(f log n)`
//!   (tree-packing compiler);
//! * **(k, D_TP)-connectivity** — `k` edge-disjoint paths of length ≤ `D_TP`
//!   between every pair, governing the depth of tree packings;
//! * **conductance** `φ` — the expander compiler tolerates `f = Õ(kφ)` faults
//!   with overhead `Õ(r/φ)`.
//!
//! These routines compute those quantities exactly at simulation scale (the
//! compilers' admissibility checks and packing quality read them), or
//! estimate the conductance by a sweep.

use crate::graph::{ArcId, EdgeId, Graph, NodeId};

/// Reusable state of the unit-capacity max-flow on the bidirected version of
/// the graph (arc `2e` and arc `2e + 1` of every edge, capacity 1 each): which
/// arcs carry flow, plus the BFS buffers.  One value serves any number of
/// flow computations on any graph, so a caller that runs `m` or `n − 1` of
/// them allocates once instead of three vectors per BFS.
#[derive(Debug, Default)]
pub(crate) struct MaxFlow {
    /// Per arc: does it carry a unit of flow?
    used: Vec<bool>,
    /// Per node reached by the last BFS: the node it was reached from and the
    /// arc whose `used` bit augmenting over that step flips.
    pred: Vec<(NodeId, ArcId)>,
    /// Per node: reached by the last BFS?
    seen: Vec<bool>,
    queue: Vec<NodeId>,
}

impl MaxFlow {
    /// Push up to `limit` units of flow from `s` to `t` (`s != t`), starting
    /// from the empty flow whatever an earlier call left behind; returns the
    /// number pushed.  When that is below `limit`, the flow is maximum and
    /// `seen` holds the source side of a minimum `s`–`t` cut.
    fn run(&mut self, g: &Graph, s: NodeId, t: NodeId, limit: usize) -> usize {
        self.used.clear();
        self.used.resize(g.arc_count(), false);
        self.pred.resize(g.node_count(), (0, 0));
        let mut value = 0;
        while value < limit && self.augment(g, s, t) {
            value += 1;
        }
        value
    }

    /// One BFS from `s` in the residual graph (so shorter augmenting paths are
    /// found first); if it reaches `t`, push one unit along the path found.
    fn augment(&mut self, g: &Graph, s: NodeId, t: NodeId) -> bool {
        self.seen.clear();
        self.seen.resize(g.node_count(), false);
        self.seen[s] = true;
        self.queue.clear();
        self.queue.push(s);
        let mut head = 0;
        'bfs: while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &(v, e) in g.neighbors(u) {
                let (arc, rev) = Graph::arcs_from(u, v, e);
                // Residual capacity exists if this direction is unused (push
                // on it), or the opposite direction carries flow to cancel.
                let can_forward = !self.used[arc];
                if (can_forward || self.used[rev]) && !self.seen[v] {
                    self.seen[v] = true;
                    self.pred[v] = (u, if can_forward { arc } else { rev });
                    if v == t {
                        break 'bfs;
                    }
                    self.queue.push(v);
                }
            }
        }
        if !self.seen[t] {
            return false;
        }
        let mut cur = t;
        while cur != s {
            let (prev, arc) = self.pred[cur];
            self.used[arc] = !self.used[arc];
            cur = prev;
        }
        true
    }

    /// [`edge_disjoint_paths`] on this scratch.
    pub(crate) fn disjoint_paths(
        &mut self,
        g: &Graph,
        s: NodeId,
        t: NodeId,
        limit: usize,
    ) -> Vec<Vec<NodeId>> {
        if s == t {
            return Vec::new();
        }
        let count = self.run(g, s, t, limit);
        decompose_paths(g, s, t, &mut self.used, count)
    }
}

/// Maximum number of edge-disjoint `s`–`t` paths (equivalently the minimum
/// `s`–`t` edge cut), computed with BFS augmenting paths on the unit-capacity
/// directed version of the graph.
pub fn edge_disjoint_path_count(g: &Graph, s: NodeId, t: NodeId) -> usize {
    edge_disjoint_paths(g, s, t, usize::MAX).len()
}

/// Find up to `limit` edge-disjoint `s`–`t` paths (each as a node sequence).
///
/// Uses unit-capacity max-flow; after the flow is computed the paths are
/// decomposed from the residual graph.  Shorter augmenting paths are found
/// first (BFS), which empirically keeps path lengths close to the
/// `(k, D_TP)`-connectivity profile used by the paper.
pub fn edge_disjoint_paths(g: &Graph, s: NodeId, t: NodeId, limit: usize) -> Vec<Vec<NodeId>> {
    MaxFlow::default().disjoint_paths(g, s, t, limit)
}

fn decompose_paths(
    g: &Graph,
    s: NodeId,
    t: NodeId,
    used: &mut [bool],
    count: usize,
) -> Vec<Vec<NodeId>> {
    let mut paths = Vec::with_capacity(count);
    for _ in 0..count {
        let mut path = vec![s];
        let mut cur = s;
        let mut guard = 0;
        while cur != t {
            guard += 1;
            if guard > g.node_count() * 2 {
                break;
            }
            let mut advanced = false;
            for &(v, e) in g.neighbors(cur) {
                let (arc, _) = Graph::arcs_from(cur, v, e);
                if used[arc] {
                    used[arc] = false;
                    path.push(v);
                    cur = v;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
        if cur == t {
            paths.push(path);
        }
    }
    paths
}

/// Global edge connectivity `λ(G)`: the minimum over all pairs of the maximum
/// number of edge-disjoint paths — the size of the graph's memoised minimum
/// cut ([`Graph::min_cut`]).  Returns 0 for disconnected or single-node
/// graphs.
pub fn edge_connectivity(g: &Graph) -> usize {
    g.min_cut().len()
}

/// The edge set of one global minimum edge cut — the computation behind
/// [`Graph::min_cut`]: one unit-capacity max flow per candidate sink `v` from
/// node 0 (a global minimum cut separates node 0 from some node), keeping the
/// residual source side of the smallest; the cut is the set of edges leaving
/// that side.  A sink's flow computation aborts as soon as it reaches the best
/// cut found so far (it cannot yield a smaller one), and no flow is decomposed
/// into paths.  Returns edge ids in increasing order; empty for disconnected
/// or single-node graphs (where the cut is trivial).
///
/// Tree packings are bounded by such cuts — every spanning tree crosses every
/// cut at least once, so `k` trees at per-edge load `η` need `η·|cut| ≥ k` —
/// which makes the *usage* of a minimum cut the tightest structural measure of
/// packing quality ([`crate::tree_packing::PackingQuality`]).
pub(crate) fn min_edge_cut(g: &Graph) -> Vec<EdgeId> {
    let n = g.node_count();
    if n <= 1 {
        return Vec::new();
    }
    let mut best_flow = usize::MAX;
    let mut best_side: Vec<bool> = Vec::new();
    let mut flow = MaxFlow::default();
    for sink in 1..n {
        let value = flow.run(g, 0, sink, best_flow);
        if value < best_flow {
            best_flow = value;
            best_side.clone_from(&flow.seen);
        }
    }
    g.edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| best_side[e.u] != best_side[e.v])
        .map(|(id, _)| id)
        .collect()
}

/// Conductance of the cut `(S, V \ S)`: `|E(S, V\S)| / min(vol(S), vol(V\S))`.
/// Returns `None` if either side has zero volume.
pub fn cut_conductance(g: &Graph, in_s: &[bool]) -> Option<f64> {
    let mut cut = 0usize;
    let mut vol_s = 0usize;
    let mut vol_rest = 0usize;
    for u in g.nodes() {
        if in_s[u] {
            vol_s += g.degree(u);
        } else {
            vol_rest += g.degree(u);
        }
    }
    for e in g.edges() {
        if in_s[e.u] != in_s[e.v] {
            cut += 1;
        }
    }
    let denom = vol_s.min(vol_rest);
    if denom == 0 {
        None
    } else {
        Some(cut as f64 / denom as f64)
    }
}

/// Exact conductance by exhaustive enumeration of all cuts.  Exponential in
/// `n`; intended for graphs with at most ~20 nodes (tests, calibration).
///
/// # Panics
///
/// Panics if `n > 24` (would take far too long) or `n < 2`.
pub fn exact_conductance(g: &Graph) -> f64 {
    let n = g.node_count();
    assert!(
        (2..=24).contains(&n),
        "exact_conductance needs 2..=24 nodes"
    );
    let mut best = f64::INFINITY;
    for mask in 1u64..(1u64 << (n - 1)) {
        let in_s: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        if let Some(c) = cut_conductance(g, &in_s) {
            best = best.min(c);
        }
    }
    best
}

/// Estimate the conductance via a sweep cut over the second eigenvector of the
/// normalised adjacency matrix (power iteration with deflation of the trivial
/// eigenvector).  Returns a valid cut's conductance — an *upper bound* on the
/// true conductance, and by Cheeger's inequality within a quadratic factor of
/// the optimum.  Suitable for the larger expander instances.
pub fn sweep_conductance(g: &Graph, iterations: usize) -> Option<f64> {
    let n = g.node_count();
    if n < 2 || g.edge_count() == 0 {
        return None;
    }
    let deg: Vec<f64> = (0..n).map(|u| g.degree(u).max(1) as f64).collect();
    // Start from a deterministic pseudo-random vector; orthogonalise against
    // the stationary direction (sqrt(deg)).
    let mut x: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761 + 12345) % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    let stat: Vec<f64> = deg.iter().map(|d| d.sqrt()).collect();
    let stat_norm: f64 = stat.iter().map(|v| v * v).sum::<f64>().sqrt();
    let stat: Vec<f64> = stat.iter().map(|v| v / stat_norm).collect();
    for _ in 0..iterations {
        // Deflate.
        let proj: f64 = x.iter().zip(&stat).map(|(a, b)| a * b).sum();
        for i in 0..n {
            x[i] -= proj * stat[i];
        }
        // y = (I + D^{-1/2} A D^{-1/2})/2 x   (lazy walk keeps it stable)
        let mut y = vec![0.0f64; n];
        for u in 0..n {
            for &(v, _) in g.neighbors(u) {
                y[v] += x[u] / (deg[u].sqrt() * deg[v].sqrt());
            }
        }
        for i in 0..n {
            x[i] = 0.5 * x[i] + 0.5 * y[i];
        }
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-12 {
            return exact_or_trivial(g);
        }
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
    // Sweep cut over the embedding x / sqrt(deg).
    let mut order: Vec<NodeId> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ka = x[a] / deg[a].sqrt();
        let kb = x[b] / deg[b].sqrt();
        ka.partial_cmp(&kb).unwrap()
    });
    let mut in_s = vec![false; n];
    let mut best: Option<f64> = None;
    for &v in order.iter().take(n - 1) {
        in_s[v] = true;
        if let Some(c) = cut_conductance(g, &in_s) {
            best = Some(best.map_or(c, |b: f64| b.min(c)));
        }
    }
    best
}

fn exact_or_trivial(g: &Graph) -> Option<f64> {
    if g.node_count() <= 20 {
        Some(exact_conductance(g))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Estimate the tree-packing diameter `D_TP(k)`: the smallest `d` such that all
    /// *adjacent* pairs (a cheaper proxy for all pairs, which is what the
    /// compilers' per-edge correction paths need) have `k` edge-disjoint paths of
    /// length ≤ `d`.  Returns `None` when some adjacent pair does not even have `k`
    /// edge-disjoint paths.
    fn estimate_dtp(g: &Graph, k: usize) -> Option<usize> {
        let mut worst = 0usize;
        for e in g.edges() {
            let paths = edge_disjoint_paths(g, e.u, e.v, k);
            if paths.len() < k {
                return None;
            }
            let longest = paths.iter().map(|p| p.len() - 1).max().unwrap_or(0);
            worst = worst.max(longest);
        }
        Some(worst)
    }

    #[test]
    fn disjoint_paths_on_cycle() {
        let g = generators::cycle(8);
        assert_eq!(edge_disjoint_path_count(&g, 0, 4), 2);
        let paths = edge_disjoint_paths(&g, 0, 4, 10);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p[0], 0);
            assert_eq!(*p.last().unwrap(), 4);
        }
        // The two paths must be edge-disjoint: total edges = 8.
        let total_edges: usize = paths.iter().map(|p| p.len() - 1).sum();
        assert_eq!(total_edges, 8);
    }

    #[test]
    fn disjoint_paths_limit_respected() {
        let g = generators::complete(6);
        let paths = edge_disjoint_paths(&g, 0, 5, 3);
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn connectivity_of_standard_graphs() {
        assert_eq!(edge_connectivity(&generators::path(5)), 1);
        assert_eq!(edge_connectivity(&generators::cycle(7)), 2);
        assert_eq!(edge_connectivity(&generators::complete(6)), 5);
        assert_eq!(edge_connectivity(&generators::circulant(11, 3)), 6);
        assert_eq!(edge_connectivity(&generators::hypercube(4)), 4);
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(edge_connectivity(&disconnected), 0);
        assert_eq!(edge_connectivity(&Graph::new(1)), 0);
    }

    /// The exact sweep `edge_connectivity` was before the memo, kept as an
    /// oracle: `min_v` of the number of decomposed edge-disjoint `0 → v`
    /// paths, 0 for `n ≤ 1`.
    fn exact_sweep(g: &Graph) -> usize {
        (1..g.node_count())
            .map(|v| edge_disjoint_path_count(g, 0, v))
            .min()
            .unwrap_or(0)
    }

    /// The capped sweep the compilers' `λ ≥ 2f + 1` check ran before the
    /// memo, kept as an oracle: each of the `n − 1` flows stops after `k`
    /// augmentations and the first sink that falls short ends the sweep.
    fn at_least(g: &Graph, k: usize) -> bool {
        if k == 0 {
            return true;
        }
        let mut flow = MaxFlow::default();
        g.node_count() > 1 && (1..g.node_count()).all(|v| flow.run(g, 0, v, k) == k)
    }

    /// The graphs the memo is checked on: the zoo, classic families, two
    /// disconnected graphs (one with an isolated node), a single node and the
    /// empty graph.
    fn memo_cases() -> Vec<Graph> {
        let mut graphs = generators::test_zoo();
        graphs.extend([
            generators::path(5),
            generators::cycle(7),
            generators::complete(6),
            generators::circulant(11, 3),
            Graph::from_edges(4, &[(0, 1), (2, 3)]),
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]),
            Graph::new(1),
            Graph::new(0),
        ]);
        graphs
    }

    #[test]
    fn threshold_connectivity_agrees_with_the_exact_value() {
        for g in memo_cases() {
            let lambda = edge_connectivity(&g);
            assert_eq!(lambda, exact_sweep(&g));
            assert_eq!(lambda, g.min_cut().len());
            for k in 0..=lambda + 2 {
                assert_eq!(at_least(&g, k), lambda >= k, "k = {k}");
            }
        }
    }

    #[test]
    fn stale_max_flow_scratch_returns_the_same_paths_as_a_fresh_one() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        // One scratch across graphs of different sizes, never cleared by the
        // caller: whatever flow, BFS marks and queue the last call left
        // behind must not leak into the next.
        let mut stale = MaxFlow::default();
        for g in [
            generators::expander_d_regular(24, 8, 5),
            generators::torus(4, 5),
            generators::ring_of_cliques(4, 5),
            generators::complete(9),
            generators::path(6),
        ] {
            let n = g.node_count();
            for _ in 0..40 {
                let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let limit = rng.gen_range(0..6);
                assert_eq!(
                    stale.disjoint_paths(&g, s, t, limit),
                    edge_disjoint_paths(&g, s, t, limit),
                    "{s} -> {t}, limit {limit}"
                );
            }
        }
    }

    #[test]
    fn same_endpoints_yield_no_paths() {
        let g = generators::complete(4);
        assert!(edge_disjoint_paths(&g, 2, 2, 5).is_empty());
    }

    #[test]
    fn dtp_estimates() {
        let clique = generators::complete(8);
        assert_eq!(estimate_dtp(&clique, 2), Some(2));
        let cyc = generators::cycle(9);
        assert_eq!(estimate_dtp(&cyc, 2), Some(8));
        assert_eq!(estimate_dtp(&cyc, 3), None);
    }

    #[test]
    fn min_edge_cut_witnesses_edge_connectivity() {
        for g in [
            generators::cycle(7),
            generators::circulant(12, 2),
            generators::barbell(4, 1),
            generators::complete(6),
            generators::grid(3, 4),
        ] {
            let lambda = edge_connectivity(&g);
            let cut = min_edge_cut(&g);
            assert_eq!(cut.len(), lambda, "cut size must equal λ");
            // Removing the cut edges disconnects the graph.
            let keep: Vec<(usize, usize)> = g
                .edges()
                .iter()
                .enumerate()
                .filter(|(id, _)| !cut.contains(id))
                .map(|(_, e)| (e.u, e.v))
                .collect();
            let cut_graph = Graph::from_edges(g.node_count(), &keep);
            assert!(
                !crate::traversal::is_connected(&cut_graph),
                "removing the cut must disconnect the graph"
            );
            // Edge ids come back sorted and unique.
            assert!(cut.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(min_edge_cut(&Graph::new(1)).is_empty());
    }

    #[test]
    fn conductance_exact_values() {
        // Complete graph K4: best cut is 2-vs-2: 4 crossing edges / volume 6 = 2/3.
        let k4 = generators::complete(4);
        assert!((exact_conductance(&k4) - 2.0 / 3.0).abs() < 1e-9);
        // Barbell: bottleneck single edge over ~clique volume → small conductance.
        let bb = generators::barbell(4, 1);
        assert!(exact_conductance(&bb) < 0.1);
        // Cycle of 8: best cut is half/half: 2 / 8 = 0.25.
        let c8 = generators::cycle(8);
        assert!((exact_conductance(&c8) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn sweep_conductance_upper_bounds_and_detects_bottleneck() {
        let bb = generators::barbell(6, 2);
        let exact = exact_conductance(&bb);
        let sweep = sweep_conductance(&bb, 200).unwrap();
        assert!(sweep >= exact - 1e-9);
        assert!(sweep < 0.2, "sweep failed to find the bottleneck: {sweep}");
        // On an expander-ish graph the sweep value should be large.
        let hc = generators::hypercube(5);
        let sweep_hc = sweep_conductance(&hc, 200).unwrap();
        assert!(
            sweep_hc > 0.1,
            "hypercube sweep conductance too small: {sweep_hc}"
        );
    }

    #[test]
    fn cut_conductance_degenerate_cuts() {
        let g = generators::complete(4);
        assert_eq!(cut_conductance(&g, &[false; 4]), None);
        assert_eq!(cut_conductance(&g, &[true; 4]), None);
    }
}
