//! Low-diameter tree packings (Definition 6 and Definition 7 of the paper).
//!
//! A `(k, D_TP, η)` tree packing is a collection of `k` spanning trees of
//! diameter ≤ `D_TP` such that every edge of the host graph is used by at most
//! `η` trees.  A *weak* packing only requires 0.9k of the subgraphs to be
//! spanning trees rooted at a common root.  The byzantine compiler of
//! Theorem 3.5 is driven entirely by such a packing.
//!
//! Four constructions are provided:
//!
//! * [`greedy_low_depth_packing`] — **v1**, the multiplicative-weights packing
//!   of the paper's Appendix C: trees are added one by one, each a shallow
//!   spanning tree that prefers lightly-loaded edges;
//! * [`augmented_low_depth_packing`] — **v2**, the greedy packing followed by
//!   [`improve_packing`]: a Gabow-style augmenting-path repair pass that
//!   re-roots blocked subtrees through underloaded edges until the per-edge
//!   load matches the [`load_floor`] the graph admits (classic packing results
//!   — Nash-Williams/Tutte, Gabow's matroid-union augmentation — show such
//!   packings are computable in polynomial time);
//! * [`star_packing`] — the exact `(n, 2, 2)` packing of the complete graph
//!   used by the CONGESTED CLIQUE compilers (Theorems 1.6 / 4.11).
//!
//! [`PackingQuality`] measures a packing against its `(k, D_TP, η)` target —
//! good-tree count, max edge load, usage of a minimum cut — which is what the
//! resilient compilers report so that validation can *predict* correction
//! strength instead of merely gating on connectivity.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::spanning::{min_cost_depth_bounded_tree, RootedTree};
use std::collections::VecDeque;

/// A collection of (sub)trees of a host graph intended as a tree packing.
#[derive(Debug, Clone)]
pub struct TreePacking {
    /// The trees of the packing.  Not all of them need to be spanning (weak packings).
    pub trees: Vec<RootedTree>,
}

impl TreePacking {
    /// Construct from a list of trees.
    pub fn new(trees: Vec<RootedTree>) -> Self {
        TreePacking { trees }
    }

    /// Number of trees `k`.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the packing is empty.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Load of the packing: the maximum, over host edges, of the number of
    /// trees using that edge.
    pub fn load(&self, g: &Graph) -> usize {
        let mut use_count = vec![0usize; g.edge_count()];
        for t in &self.trees {
            for &e in &t.edges {
                use_count[e] += 1;
            }
        }
        use_count.into_iter().max().unwrap_or(0)
    }

    /// Maximum height over the trees (a bound on `D_TP` up to a factor 2).
    pub fn max_height(&self) -> usize {
        self.trees.iter().map(|t| t.height()).max().unwrap_or(0)
    }

    /// Number of trees that are spanning trees of `g` with height at most
    /// `max_height` and root equal to `root`.
    pub fn count_good(&self, g: &Graph, root: NodeId, max_height: usize) -> usize {
        self.trees
            .iter()
            .filter(|t| t.root == root && t.is_spanning(g) && t.height() <= max_height)
            .count()
    }

    /// Whether this is a weak `(k, D_TP, η)` packing per Definition 7:
    /// at least `0.9 k` trees are spanning, rooted at `root`, of height ≤
    /// `max_height`, and the load is at most `eta`.
    pub fn is_weak_packing(&self, g: &Graph, root: NodeId, max_height: usize, eta: usize) -> bool {
        let good = self.count_good(g, root, max_height);
        10 * good >= 9 * self.len() && self.load(g) <= eta
    }

    /// Indices of trees using the given edge.
    pub fn trees_using_edge(&self, e: EdgeId) -> Vec<usize> {
        self.trees
            .iter()
            .enumerate()
            .filter(|(_, t)| t.uses_edge(e))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The Appendix-C greedy multiplicative-weights packing: add `k` trees one at a
/// time; tree `i` is a hop-bounded lightest spanning tree computed under edge
/// weights `a^{load_i(e)/η}` so that heavily loaded edges are avoided.
/// `eta_hint` controls the weight normalisation (use the target load, e.g.
/// `O(log n)`); the hop budget is `2·diam(G) + 2`, matching the
/// `O(D_TP log n)`-depth guarantee of Theorem 3.1 up to constants.
///
/// All trees are rooted at `root`.
///
/// # Panics
///
/// Panics if the graph is disconnected (a spanning tree cannot be built) or
/// `k == 0`.
pub fn greedy_low_depth_packing(g: &Graph, root: NodeId, k: usize, eta_hint: usize) -> TreePacking {
    greedy_low_depth_packing_with_budget(g, root, k, eta_hint, None)
}

/// [`greedy_low_depth_packing`] with an explicit hop budget for the trees.
/// When `hop_budget` is `None`, `2·diam(G) + 2` is used.
///
/// # Panics
///
/// Panics if the graph is disconnected or `k == 0`.
pub fn greedy_low_depth_packing_with_budget(
    g: &Graph,
    root: NodeId,
    k: usize,
    eta_hint: usize,
    hop_budget: Option<usize>,
) -> TreePacking {
    assert!(k > 0, "k must be positive");
    assert!(
        crate::traversal::is_connected(g),
        "greedy packing requires a connected graph"
    );
    let budget = hop_budget.unwrap_or_else(|| 2 * g.diameter().unwrap_or(g.node_count()) + 2);
    let eta = eta_hint.max(1) as f64;
    let a: f64 = 8.0; // base of the multiplicative weights

    // A load is at most the number of trees built so far: one power per load.
    let weight_of_load: Vec<f64> = (0..k).map(|l| a.powf(l as f64 / eta)).collect();
    let mut load = vec![0usize; g.edge_count()];
    let mut weights = vec![0.0; g.edge_count()];
    let mut trees = Vec::with_capacity(k);
    for _ in 0..k {
        for (w, &l) in weights.iter_mut().zip(&load) {
            *w = weight_of_load[l];
        }
        let tree = min_cost_depth_bounded_tree(g, root, &weights, budget);
        for &e in &tree.edges {
            load[e] += 1;
        }
        trees.push(tree);
    }
    TreePacking::new(trees)
}

/// Which tree-packing construction a resilient compiler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackingVersion {
    /// The greedy multiplicative-weights packing
    /// ([`greedy_low_depth_packing`]).
    V1Greedy,
    /// The greedy packing plus the augmenting-path repair pass
    /// ([`augmented_low_depth_packing`]).
    #[default]
    V2Augmented,
}

impl PackingVersion {
    /// Stable lowercase label (`v1` / `v2`), used by serialized specs and
    /// compiler display names.
    pub fn label(self) -> &'static str {
        match self {
            PackingVersion::V1Greedy => "v1",
            PackingVersion::V2Augmented => "v2",
        }
    }

    /// Inverse of [`PackingVersion::label`].
    pub fn from_label(label: &str) -> Option<PackingVersion> {
        match label {
            "v1" => Some(PackingVersion::V1Greedy),
            "v2" => Some(PackingVersion::V2Augmented),
            _ => None,
        }
    }
}

/// Quality of a packing against its `(k, D_TP, η)` target: the structural
/// quantities that decide whether the correction layer's majority argument
/// holds, measured so experiment reports and validation can compare them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackingQuality {
    /// Number of trees `k`.
    pub trees: usize,
    /// Trees that are spanning, rooted at the common root, of height at most
    /// the budget (the "good" trees of Definition 7).
    pub good_trees: usize,
    /// Maximum, over host edges, of the number of trees using that edge.
    pub max_edge_load: usize,
    /// The smallest max-edge-load any `k`-tree packing of this graph can have:
    /// `⌈k(n−1)/m⌉` (see [`load_floor`]).
    pub load_floor: usize,
    /// Tree-edge slots crossing one minimum edge cut ([`Graph::min_cut`]).
    /// Every spanning tree crosses every cut, so
    /// `good_trees ≤ min_cut_usage ≤ max_edge_load · λ`.
    pub min_cut_usage: usize,
    /// Maximum tree height.
    pub max_height: usize,
}

impl PackingQuality {
    /// Measure `packing` against root `root` and height budget `max_height`.
    pub fn measure(g: &Graph, packing: &TreePacking, root: NodeId, max_height: usize) -> Self {
        let cut = g.min_cut();
        let min_cut_usage = packing
            .trees
            .iter()
            .map(|t| t.edges.iter().filter(|e| cut.contains(e)).count())
            .sum();
        PackingQuality {
            trees: packing.len(),
            good_trees: packing.count_good(g, root, max_height),
            max_edge_load: packing.load(g),
            load_floor: load_floor(g, packing.len()),
            min_cut_usage,
            max_height: packing.max_height(),
        }
    }
}

/// The smallest max-edge-load any packing of `k` spanning trees of `g` can
/// achieve: `k` trees occupy `k(n−1)` edge slots over `m` edges, so some edge
/// carries at least `⌈k(n−1)/m⌉` trees.
pub fn load_floor(g: &Graph, k: usize) -> usize {
    let n = g.node_count();
    let m = g.edge_count();
    if m == 0 {
        return 0;
    }
    (k * n.saturating_sub(1)).div_ceil(m)
}

/// Tree-packing **v2**: the greedy packing of [`greedy_low_depth_packing`]
/// followed by the [`improve_packing`] augmenting-path repair pass, driving
/// the per-edge load down to `max(eta_hint, load_floor)` — the level the
/// graph actually admits — while keeping every tree spanning, rooted at
/// `root` and within the hop budget.
///
/// This closes the gap PR 3 exposed: the greedy heuristic can leave an edge
/// carrying one tree more than necessary, and a heaviest-edge mobile
/// adversary fails *every* instance scheduled over that edge at once.  The
/// deterministic repair pass removes exactly that weakness.
///
/// # Panics
///
/// Panics if the graph is disconnected or `k == 0`.
pub fn augmented_low_depth_packing(
    g: &Graph,
    root: NodeId,
    k: usize,
    eta_hint: usize,
) -> TreePacking {
    augmented_low_depth_packing_with_budget(g, root, k, eta_hint, None)
}

/// [`augmented_low_depth_packing`] with an explicit hop budget (`None` uses
/// `2·diam(G) + 2`, matching v1; the repair pass re-roots subtrees, so it is
/// given one extra diameter of slack on top of the construction budget).
///
/// # Panics
///
/// Panics if the graph is disconnected or `k == 0`.
pub fn augmented_low_depth_packing_with_budget(
    g: &Graph,
    root: NodeId,
    k: usize,
    eta_hint: usize,
    hop_budget: Option<usize>,
) -> TreePacking {
    augmented_low_depth_packing_traced(
        g,
        root,
        k,
        eta_hint,
        hop_budget,
        &mut obs::Tracer::disabled(),
    )
}

/// [`augmented_low_depth_packing_with_budget`] with a tracer: each successful
/// augmenting-chain application of the v2 repair pass emits an
/// [`obs::EventKind::AugmentingChainStep`] point event.
///
/// # Panics
///
/// Panics if the graph is disconnected or `k == 0`.
pub fn augmented_low_depth_packing_traced(
    g: &Graph,
    root: NodeId,
    k: usize,
    eta_hint: usize,
    hop_budget: Option<usize>,
    tracer: &mut obs::Tracer,
) -> TreePacking {
    let diam = g.diameter().unwrap_or(g.node_count());
    let budget = hop_budget.unwrap_or(2 * diam + 2);
    let greedy = greedy_low_depth_packing_with_budget(g, root, k, eta_hint, Some(budget));
    let eta_star = load_floor(g, k).max(eta_hint);
    improve_packing_traced(g, root, greedy, eta_star, budget + diam, tracer)
}

/// The v2 repair pass, in two phases:
///
/// 1. **spanning repair** — every tree that fails to span (a blocked subtree
///    the greedy construction left behind) is completed by attaching the
///    missing nodes through the least-loaded available edges;
/// 2. **load reduction** — the packing's maximum edge load is driven down to
///    `eta_star` by Gabow-style augmenting chains of subtree re-rootings,
///    never letting a tree stop spanning or exceed `height_budget`.
///
/// Each augmentation walks a BFS over host edges from the currently heaviest
/// edge towards any edge with residual capacity: edge `e` steps to edge `e'`
/// when some tree using `e` can release it by detaching the subtree below
/// `e`, re-rooting it at the `e'` endpoint inside the detached part and
/// re-attaching it through `e'` (the matroid-union exchange step of Gabow's
/// packing algorithms, specialised to spanning trees).  Applying the chain
/// back-to-front moves one unit of load from the overloaded edge to the
/// underloaded one and leaves every intermediate edge unchanged.  The pass
/// stops at `eta_star` or at a fixpoint; it never makes the packing worse.
///
/// The pass is deterministic — candidate edges, trees and chains are visited
/// in index order — so compilers built on it stay byte-identical across runs
/// and thread counts.
pub fn improve_packing(
    g: &Graph,
    root: NodeId,
    packing: TreePacking,
    eta_star: usize,
    height_budget: usize,
) -> TreePacking {
    improve_packing_traced(
        g,
        root,
        packing,
        eta_star,
        height_budget,
        &mut obs::Tracer::disabled(),
    )
}

/// [`improve_packing`] with a tracer: one
/// [`obs::EventKind::AugmentingChainStep`] point event per successful
/// augmenting-chain application (the `step` field is the load-reduction
/// round index).
pub fn improve_packing_traced(
    g: &Graph,
    root: NodeId,
    packing: TreePacking,
    eta_star: usize,
    height_budget: usize,
    tracer: &mut obs::Tracer,
) -> TreePacking {
    let mut trees = packing.trees;
    for ti in 0..trees.len() {
        complete_spanning(g, root, &mut trees, ti);
    }
    // Each successful augmentation reduces the load potential Σ_e max(0,
    // load(e) − η*) by one; a partially applied (gone-stale) chain still
    // strictly changes the trees, so later attempts see fresh state.  A
    // `false` return means the trees are untouched, and `augment_once` is a
    // pure function of them — retrying would repeat the identical pass — so
    // the first unchanged attempt is the fixpoint.  The round bound is a
    // safety net against partial-application livelock.
    let max_rounds = 8 * g.edge_count().max(1);
    for step in 0..max_rounds {
        let load = edge_loads(g, &trees);
        if load.iter().all(|&l| l <= eta_star) {
            break;
        }
        if !augment_once(g, root, &mut trees, eta_star, height_budget) {
            break;
        }
        tracer.point(obs::EventKind::AugmentingChainStep { step });
    }
    TreePacking::new(trees)
}

/// Phase-1 repair: attach every node tree `ti` fails to reach, always
/// through the least-loaded edge into the reached set (ties: shallower
/// attachment, then smaller node id).  No-op for spanning trees; terminates
/// on connected hosts because every pass attaches one node.
fn complete_spanning(g: &Graph, root: NodeId, trees: &mut [RootedTree], ti: usize) {
    if trees[ti].is_spanning(g) {
        return;
    }
    let mut load = edge_loads(g, trees);
    let mut parent = trees[ti].parent.clone();
    loop {
        let tree = RootedTree::from_parents(g, root, parent.clone());
        let depths = tree.depths();
        if depths.iter().all(Option::is_some) {
            trees[ti] = tree;
            return;
        }
        // (load, attachment depth, missing node): lowest wins.
        let mut best: Option<(usize, usize, NodeId, NodeId, EdgeId)> = None;
        for (e, edge) in g.edges().iter().enumerate() {
            for (inside, outside) in [(edge.u, edge.v), (edge.v, edge.u)] {
                let Some(d) = depths[inside] else { continue };
                if depths[outside].is_some() {
                    continue;
                }
                let cand = (load[e], d + 1, outside, inside, e);
                if best.is_none_or(|b| (cand.0, cand.1, cand.2) < (b.0, b.1, b.2)) {
                    best = Some(cand);
                }
            }
        }
        let Some((_, _, outside, inside, e)) = best else {
            // Disconnected host: leave the fragment as the greedy pass built it.
            trees[ti] = tree;
            return;
        };
        parent[outside] = Some(inside);
        load[e] += 1;
    }
}

/// Per-edge tree counts.
fn edge_loads(g: &Graph, trees: &[RootedTree]) -> Vec<usize> {
    let mut load = vec![0usize; g.edge_count()];
    for t in trees {
        for &e in &t.edges {
            load[e] += 1;
        }
    }
    load
}

/// Nodes of the subtree hanging below tree edge `e` (the child side).
fn subtree_below(g: &Graph, t: &RootedTree, e: EdgeId) -> Vec<bool> {
    let edge = g.edge(e);
    let child = if t.parent[edge.u] == Some(edge.v) {
        edge.u
    } else {
        edge.v
    };
    let children = t.children();
    let mut mask = vec![false; g.node_count()];
    let mut stack = vec![child];
    while let Some(v) = stack.pop() {
        if mask[v] {
            continue;
        }
        mask[v] = true;
        stack.extend(children[v].iter().copied());
    }
    mask
}

/// New parent vector for `t` after detaching the subtree `mask`, re-rooting
/// it at `sub_root` (inside the mask) and attaching it below `attach`
/// (outside): the parent chain from `sub_root` up to the detached subtree's
/// old root is reversed.
fn reattach_subtree(
    t: &RootedTree,
    mask: &[bool],
    sub_root: NodeId,
    attach: NodeId,
) -> Vec<Option<NodeId>> {
    let mut parent = t.parent.clone();
    let mut prev = Some(attach);
    let mut cur = Some(sub_root);
    while let Some(v) = cur {
        debug_assert!(mask[v], "re-rooted chain must stay inside the subtree");
        let next = parent[v].filter(|&p| mask[p]);
        parent[v] = prev;
        prev = Some(v);
        cur = next;
    }
    parent
}

/// Whether the parent vector is a spanning tree of height ≤ `budget`.
fn parents_span_within(g: &Graph, parent: &[Option<NodeId>], root: NodeId, budget: usize) -> bool {
    let t = RootedTree::from_parents(g, root, parent.to_vec());
    t.is_spanning(g) && t.height() <= budget
}

/// One augmenting chain (see [`improve_packing`]).  Returns whether the tree
/// set changed.
fn augment_once(
    g: &Graph,
    root: NodeId,
    trees: &mut [RootedTree],
    eta_star: usize,
    height_budget: usize,
) -> bool {
    let load = edge_loads(g, trees);
    let m = g.edge_count();
    // Start from the heaviest overloaded edge (lowest id on ties: that is the
    // edge a heaviest-targeting adversary would focus on first).
    let Some(start) = (0..m)
        .filter(|&e| load[e] > eta_star)
        .max_by_key(|&e| (load[e], std::cmp::Reverse(e)))
    else {
        return false;
    };
    /// One BFS step: freeing `prev` by moving `tree`'s subtree (re-rooted at
    /// `sub_root`) below `attach` across the discovered edge.
    #[derive(Clone)]
    struct Step {
        prev: EdgeId,
        tree: usize,
        sub_root: NodeId,
        attach: NodeId,
    }
    let mut pred: Vec<Option<Step>> = vec![None; m];
    let mut visited = vec![false; m];
    visited[start] = true;
    let mut queue = VecDeque::new();
    queue.push_back(start);
    let mut goal = None;
    'bfs: while let Some(e) = queue.pop_front() {
        for (ti, t) in trees.iter().enumerate() {
            if !t.uses_edge(e) {
                continue;
            }
            let mask = subtree_below(g, t, e);
            for e2 in 0..m {
                if e2 == e || visited[e2] || t.uses_edge(e2) {
                    continue;
                }
                let edge2 = g.edge(e2);
                // The replacement must cross the detachment split.
                let (attach, sub_root) = if mask[edge2.u] == mask[edge2.v] {
                    continue;
                } else if mask[edge2.v] {
                    (edge2.u, edge2.v)
                } else {
                    (edge2.v, edge2.u)
                };
                // Admit only swaps that keep the tree spanning and within the
                // height budget (checked against the current snapshot).
                let parent = reattach_subtree(t, &mask, sub_root, attach);
                if !parents_span_within(g, &parent, root, height_budget) {
                    continue;
                }
                visited[e2] = true;
                pred[e2] = Some(Step {
                    prev: e,
                    tree: ti,
                    sub_root,
                    attach,
                });
                if load[e2] < eta_star {
                    goal = Some(e2);
                    break 'bfs;
                }
                queue.push_back(e2);
            }
        }
    }
    let Some(mut at) = goal else {
        return false;
    };
    // Unwind the chain and apply it receiving-end first: every applied prefix
    // keeps all loads at or below their snapshot values (plus the one unit
    // the goal edge has room for), so even a chain that goes stale midway
    // never leaves the packing worse than before.
    let mut chain = Vec::new();
    while let Some(step) = pred[at].clone() {
        let dst = at;
        at = step.prev;
        chain.push((step, dst));
    }
    let mut changed = false;
    for (step, dst) in chain {
        let t = &trees[step.tree];
        // Re-verify on the live trees: an earlier chain link may have touched
        // this tree (the BFS planned on a snapshot).
        if !t.uses_edge(step.prev) || t.uses_edge(dst) {
            return changed;
        }
        let mask = subtree_below(g, t, step.prev);
        if !mask[step.sub_root] || mask[step.attach] {
            return changed;
        }
        let parent = reattach_subtree(t, &mask, step.sub_root, step.attach);
        if !parents_span_within(g, &parent, root, height_budget) {
            return changed;
        }
        trees[step.tree] = RootedTree::from_parents(g, root, parent);
        changed = true;
    }
    changed
}

/// The exact `(n, 2, 2)` packing of the complete graph `K_n`: for every centre
/// `c`, the star centred at `c`, re-rooted at the common root `root` (so the
/// tree rooted at `root` has `c` as its single child and every other node as a
/// grandchild; the star centred at `root` itself has depth 1).
///
/// # Panics
///
/// Panics if `g` is not a complete graph.
pub fn star_packing(g: &Graph, root: NodeId) -> TreePacking {
    let n = g.node_count();
    assert_eq!(
        g.edge_count(),
        n * (n - 1) / 2,
        "star_packing requires the complete graph"
    );
    let mut trees = Vec::with_capacity(n);
    for centre in 0..n {
        let mut parent = vec![None; n];
        if centre == root {
            for (v, slot) in parent.iter_mut().enumerate() {
                if v != root {
                    *slot = Some(root);
                }
            }
        } else {
            parent[centre] = Some(root);
            for (v, slot) in parent.iter_mut().enumerate() {
                if v != root && v != centre {
                    *slot = Some(centre);
                }
            }
        }
        trees.push(RootedTree::from_parents(g, root, parent));
    }
    TreePacking::new(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::spanning::subgraph_bfs_tree;

    #[test]
    fn star_packing_of_clique_is_tight() {
        let g = generators::complete(8);
        let p = star_packing(&g, 0);
        assert_eq!(p.len(), 8);
        assert_eq!(p.load(&g), 2);
        assert!(p.max_height() <= 2);
        assert_eq!(p.count_good(&g, 0, 2), 8);
        assert!(p.is_weak_packing(&g, 0, 2, 2));
    }

    #[test]
    #[should_panic]
    fn star_packing_rejects_non_clique() {
        let g = generators::cycle(5);
        star_packing(&g, 0);
    }

    /// Appendix C / Theorem 3.1: `k` spanning trees, each within the hop
    /// budget `2·diam + 2` (the `O(D_TP log n)` depth up to constants), at a
    /// load of `O(log n)` — here at most `⌈log2 n⌉`, and never below the
    /// [`load_floor`] any packing of `k` trees must pay.
    #[test]
    fn greedy_packing_on_circulant_spans_with_bounded_load() {
        let g = generators::circulant(16, 3); // 6-edge-connected
        let k = 4;
        let p = greedy_low_depth_packing(&g, 0, k, 2);
        assert_eq!(p.len(), k);
        for t in &p.trees {
            assert!(t.is_spanning(&g), "all greedy trees must span");
        }
        // With 6-connectivity and only 4 trees the load should stay small.
        assert!(p.load(&g) <= 3, "load {} too high", p.load(&g));
        assert!(p.max_height() <= 8);

        for (g, k) in [
            (generators::complete(16), 8usize),
            (generators::circulant(20, 3), 4),
            (generators::circulant(24, 4), 6),
            (generators::hypercube(5), 4),
        ] {
            let n = g.node_count();
            let p = greedy_low_depth_packing(&g, 0, k, 2);
            assert_eq!(p.len(), k);
            assert!(p.trees.iter().all(|t| t.is_spanning(&g)), "n={n} k={k}");
            assert!(
                p.max_height() <= 2 * g.diameter().unwrap() + 2,
                "n={n} k={k}"
            );
            let log_n = n.next_power_of_two().trailing_zeros() as usize;
            let load = p.load(&g);
            assert!(
                (load_floor(&g, k)..=log_n).contains(&load),
                "n={n} k={k}: load {load}"
            );
        }
    }

    #[test]
    fn greedy_packing_on_clique_has_low_load() {
        let g = generators::complete(10);
        let p = greedy_low_depth_packing(&g, 0, 8, 2);
        assert!(p.load(&g) <= 4);
        assert!(p.max_height() <= 3);
    }

    #[test]
    #[should_panic]
    fn greedy_packing_rejects_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        greedy_low_depth_packing(&g, 0, 2, 1);
    }

    #[test]
    fn load_floor_matches_hand_computed_values() {
        // Cycle: 2 trees × (n−1) slots over n edges → floor 2.
        assert_eq!(load_floor(&generators::cycle(8), 2), 2);
        // Clique K_n: n trees × (n−1) slots over n(n−1)/2 edges → floor 2.
        assert_eq!(load_floor(&generators::complete(10), 10), 2);
        // 9 trees on circulant(18,4): ⌈153/72⌉ = 3.
        assert_eq!(load_floor(&generators::circulant(18, 4), 9), 3);
        assert_eq!(load_floor(&Graph::new(3), 2), 0);
    }

    #[test]
    fn star_packing_quality_on_the_clique_is_optimal() {
        let g = generators::complete(8);
        let p = star_packing(&g, 0);
        let q = PackingQuality::measure(&g, &p, 0, 2);
        assert_eq!(q.trees, 8);
        assert_eq!(q.good_trees, 8, "every star is a good tree");
        assert_eq!(q.max_edge_load, 2);
        assert_eq!(q.load_floor, 2, "the star packing sits on the floor");
        assert_eq!(q.max_height, 2);
        // λ(K8) = 7 and every tree crosses a minimum (single-node) cut at
        // least once; the star packing uses each cut edge at most twice.
        assert!(q.min_cut_usage >= q.good_trees);
        assert!(q.min_cut_usage <= q.max_edge_load * 7);
    }

    #[test]
    fn ring_packing_quality_reports_the_known_optimum() {
        // On a cycle, two spanning trees are the cycle minus one edge each;
        // dropping different edges is the optimal 2-packing: max load 2 (the
        // floor), both trees good at height ≤ n − 1.
        let g = generators::cycle(6);
        let t1 = {
            let edges: Vec<EdgeId> = (1..6).map(|i| g.edge_between(i - 1, i).unwrap()).collect();
            subgraph_bfs_tree(&g, &edges, 0)
        };
        let t2 = {
            let edges: Vec<EdgeId> = (1..6)
                .map(|i| g.edge_between(i % 6, (i + 1) % 6).unwrap())
                .collect();
            subgraph_bfs_tree(&g, &edges, 0)
        };
        let p = TreePacking::new(vec![t1, t2]);
        let q = PackingQuality::measure(&g, &p, 0, 5);
        assert_eq!(q.trees, 2);
        assert_eq!(q.good_trees, 2);
        assert_eq!(q.max_edge_load, 2);
        assert_eq!(q.load_floor, 2);
        // λ(C6) = 2; both trees cross the 2-edge minimum cut.
        assert!(q.min_cut_usage >= 2);
    }

    #[test]
    fn augmented_packing_reaches_the_load_floor_on_small_world() {
        // The pinned PR-3 frontier graph: greedy v1 leaves an edge at load 4,
        // one more than the floor; the v2 repair pass must reach the floor.
        let g = crate::GraphDef::watts_strogatz(24, 6, 0.2, 7 ^ 0x5A11)
            .build()
            .unwrap();
        let k = 9;
        let v1 = greedy_low_depth_packing(&g, 0, k, 2);
        let v2 = augmented_low_depth_packing(&g, 0, k, 2);
        let floor = load_floor(&g, k);
        assert_eq!(floor, 3);
        assert!(
            v1.load(&g) > floor,
            "v1 is above the floor (else no frontier)"
        );
        assert_eq!(v2.load(&g), floor, "v2 must reach the load floor");
        assert_eq!(
            v2.trees.iter().filter(|t| t.is_spanning(&g)).count(),
            k,
            "the repair pass must keep every tree spanning"
        );
    }

    #[test]
    fn augmented_packing_is_deterministic_and_never_worse_than_greedy() {
        for (g, k) in [
            (generators::circulant(18, 4), 9usize),
            (generators::circulant(16, 3), 8),
            (crate::GraphDef::expander(24, 8, 2024).build().unwrap(), 9),
        ] {
            let v1 = greedy_low_depth_packing(&g, 0, k, 2);
            let v2a = augmented_low_depth_packing(&g, 0, k, 2);
            let v2b = augmented_low_depth_packing(&g, 0, k, 2);
            assert_eq!(
                v2a.trees, v2b.trees,
                "v2 must be deterministic (campaign reproducibility)"
            );
            assert!(v2a.load(&g) <= v1.load(&g), "v2 must never raise the load");
            let diam = g.diameter().unwrap();
            let budget = 2 * diam + 2 + diam;
            assert!(
                v2a.count_good(&g, 0, budget) >= v1.count_good(&g, 0, budget),
                "v2 must never lower the good-tree count"
            );
        }
    }

    #[test]
    fn improve_packing_is_a_noop_when_already_at_target() {
        let g = generators::complete(10);
        let p = star_packing(&g, 0);
        let improved = improve_packing(&g, 0, p.clone(), 2, 4);
        assert_eq!(
            improved.trees, p.trees,
            "a packing at its target is untouched"
        );
    }

    #[test]
    fn trees_using_edge_is_consistent_with_load() {
        let g = generators::complete(6);
        let p = star_packing(&g, 0);
        for e in 0..g.edge_count() {
            assert!(p.trees_using_edge(e).len() <= p.load(&g));
        }
    }
}
