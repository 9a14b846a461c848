//! A concrete (non-oracle) resilient transport: repetition with majority
//! voting along trees and paths.
//!
//! The paper's compilers only use the Rajagopalan–Schulman compiler as a black
//! box; [`crate::scheduler::RsScheduler`] models that black box exactly.  This
//! module provides an *executable* instantiation of the same idea for a single
//! tree at a time: every hop retransmits each symbol `2T + 1` times and the
//! receiver takes the majority, so the protocol survives any adversary that
//! corrupts at most `T` of the repetitions on any one edge.  It demonstrates
//! an end-to-end concrete pipeline without the oracle; nothing outside this
//! module runs the transport, and whether it stays is open (the Theorem 3.2
//! row of "Deviations from the paper" in `docs/ARCHITECTURE.md`).  The
//! cycle-cover compiler of Theorem 1.4, whose resilience argument is the same
//! flooding-with-majority argument (Lemma 5.6), runs its own floods: its
//! plurality vote follows [`most_frequent`]'s order and its tests check it
//! against [`majority`].  The rewind compiler votes with [`most_frequent`].

use congest_sim::network::Network;
use congest_sim::traffic::{Payload, Traffic};
use netgraph::spanning::RootedTree;
use netgraph::NodeId;
use std::collections::HashMap;

/// The most frequent of `values` (`None` if there are none), ties resolved
/// to the smallest value in `T`'s order.  The winner is the maximum of a
/// total order on `(count, value)`, so it does not depend on the order the
/// values arrive in or on the map's iteration order — callers can rely on it
/// for run-to-run determinism.
pub fn most_frequent<T: Ord + std::hash::Hash>(values: impl IntoIterator<Item = T>) -> Option<T> {
    let mut counts: HashMap<T, usize> = HashMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(v, _)| v)
}

/// Take the majority value of a list of payloads (`None` if the list is
/// empty), ties resolved by the lexicographically smallest most-frequent
/// value, matching the paper's "majority or 0" rule.
pub fn majority(values: &[Payload]) -> Option<Payload> {
    most_frequent(values).cloned()
}

/// Broadcast `value` from the root of `tree` to every tree node, repeating each
/// hop `repetitions` times in consecutive rounds with per-hop majority voting.
///
/// Round cost: `tree.height() * repetitions` network rounds.  Returns, for each
/// node, the value it decided on (`None` for nodes outside the tree or that
/// received nothing).
///
/// Resilience: a byzantine adversary must corrupt at least `⌈repetitions/2⌉`
/// rounds on some single tree edge to change any node's decision.
pub fn repeated_tree_broadcast(
    net: &mut Network,
    tree: &RootedTree,
    value: &Payload,
    repetitions: usize,
) -> Vec<Option<Payload>> {
    let g = net.shared_graph();
    let n = g.node_count();
    let reps = repetitions.max(1);
    let depths = tree.depths();
    let children = tree.children();
    let height = tree.height();

    // decided[v] = the value node v has committed to relay.
    let mut decided: Vec<Option<Payload>> = vec![None; n];
    decided[tree.root] = Some(value.clone());

    for level in 0..height {
        // Nodes at depth `level` transmit to their children, `reps` times.
        let mut received: Vec<Vec<Payload>> = vec![Vec::new(); n];
        for _ in 0..reps {
            let mut traffic = Traffic::new(&g);
            for v in 0..n {
                if depths[v] != Some(level) {
                    continue;
                }
                if let Some(val) = &decided[v] {
                    for &c in &children[v] {
                        traffic.send(&g, v, c, val.clone());
                    }
                }
            }
            let delivered = net.exchange(traffic);
            for v in 0..n {
                if depths[v] == Some(level + 1) {
                    if let Some(p) = tree.parent[v] {
                        if let Some(msg) = delivered.get(&g, p, v) {
                            received[v].push(msg.to_vec());
                        }
                    }
                }
            }
        }
        for v in 0..n {
            if depths[v] == Some(level + 1) {
                decided[v] = majority(&received[v]);
            }
        }
    }
    decided
}

/// Convergecast with repetition: every node holds a word; words are summed
/// (wrapping) up the tree toward the root, with each hop repeated `repetitions`
/// times and per-hop majority voting.  Returns the root's total (`None` if the
/// root never heard from some child).
///
/// This mirrors the sketch-aggregation pattern of the compiler at the
/// granularity the concrete transport supports (single words).
pub fn repeated_tree_sum(
    net: &mut Network,
    tree: &RootedTree,
    values: &[u64],
    repetitions: usize,
) -> Option<u64> {
    let g = net.shared_graph();
    let n = g.node_count();
    assert_eq!(values.len(), n);
    let reps = repetitions.max(1);
    let depths = tree.depths();
    let children = tree.children();
    let height = tree.height();

    // partial[v] = sum of v's subtree once computed.
    let mut partial: Vec<Option<u64>> = (0..n)
        .map(|v| {
            if tree.in_tree[v] && children[v].is_empty() {
                Some(values[v])
            } else {
                None
            }
        })
        .collect();

    // Process levels bottom-up: at step `d`, nodes at depth `height - d` send to parents.
    for step in 0..height {
        let sender_depth = height - step;
        let mut received: Vec<HashMap<NodeId, Vec<Payload>>> = vec![HashMap::new(); n];
        for _ in 0..reps {
            let mut traffic = Traffic::new(&g);
            for v in 0..n {
                if depths[v] != Some(sender_depth) {
                    continue;
                }
                if let (Some(val), Some(p)) = (partial[v], tree.parent[v]) {
                    traffic.send(&g, v, p, vec![val]);
                }
            }
            let delivered = net.exchange(traffic);
            for (v, depth) in depths.iter().enumerate().take(n) {
                if *depth == Some(sender_depth) {
                    if let Some(p) = tree.parent[v] {
                        if let Some(msg) = delivered.get(&g, v, p) {
                            received[p].entry(v).or_default().push(msg.to_vec());
                        }
                    }
                }
            }
        }
        // Parents at depth sender_depth - 1 fold in their children's majorities.
        for v in 0..n {
            if depths[v] != Some(sender_depth - 1) || !tree.in_tree[v] {
                continue;
            }
            let mut acc = values[v];
            let mut complete = true;
            for &c in &children[v] {
                // Children deeper than sender_depth already relayed through
                // intermediate levels; only direct children at sender_depth matter here.
                if depths[c] == Some(sender_depth) {
                    match received[v].get(&c).and_then(|msgs| majority(msgs)) {
                        Some(m) if !m.is_empty() => acc = acc.wrapping_add(m[0]),
                        _ => complete = false,
                    }
                } else if let Some(p) = partial[c] {
                    acc = acc.wrapping_add(p);
                } else {
                    complete = false;
                }
            }
            partial[v] = if complete { Some(acc) } else { None };
        }
    }
    partial[tree.root]
}

/// Flood a message from `source` to `target` along a collection of paths, each
/// transmission repeated so that the receiver can take a global majority over
/// `paths.len() × window` received copies — the Patra et al. pattern used by
/// the Theorem 1.4 cycle-cover compiler.
///
/// `window` is the number of rounds each path keeps re-sending (use
/// `2·f·dilation + dilation + 1` for resilience against `f` mobile faults, per
/// Lemma 5.6).  Returns the value `target` decides (majority of everything it
/// received over the last edge of each path), or `None` if it received nothing.
pub fn flood_paths_majority(
    net: &mut Network,
    paths: &[Vec<NodeId>],
    value: &Payload,
    window: usize,
) -> Option<Payload> {
    let g = net.shared_graph();
    if paths.is_empty() {
        return None;
    }
    let window = window.max(1);
    let dilation = paths.iter().map(|p| p.len() - 1).max().unwrap_or(0);
    let total_rounds = dilation + window;
    // pipe[path][hop] = the value currently held by the node at position `hop`
    // of the path (what it would forward next round).
    let mut pipe: Vec<Vec<Option<Payload>>> = paths
        .iter()
        .map(|p| {
            let mut v = vec![None; p.len()];
            v[0] = Some(value.clone());
            v
        })
        .collect();
    let mut target_received: Vec<Payload> = Vec::new();

    for _round in 0..total_rounds {
        let mut traffic = Traffic::new(&g);
        // Every path position forwards its current value one hop.
        for (pi, path) in paths.iter().enumerate() {
            for hop in 0..path.len() - 1 {
                if let Some(val) = &pipe[pi][hop] {
                    traffic.send(&g, path[hop], path[hop + 1], val.clone());
                }
            }
        }
        let delivered = net.exchange(traffic);
        for (pi, path) in paths.iter().enumerate() {
            for hop in (0..path.len() - 1).rev() {
                if pipe[pi][hop].is_some() {
                    let from = path[hop];
                    let to = path[hop + 1];
                    if let Some(msg) = delivered.get(&g, from, to) {
                        if hop + 1 == path.len() - 1 {
                            target_received.push(msg.to_vec());
                        } else {
                            pipe[pi][hop + 1] = Some(msg.to_vec());
                        }
                    }
                }
            }
        }
    }
    majority(&target_received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::adversary::{
        AdversaryRole, CorruptionBudget, CorruptionMode, FixedEdges, RandomMobile,
    };
    use netgraph::connectivity::edge_disjoint_paths;
    use netgraph::generators;
    use netgraph::spanning::bfs_tree;

    #[test]
    fn majority_rules() {
        assert_eq!(majority(&[]), None);
        assert_eq!(majority(&[vec![1]]), Some(vec![1]));
        assert_eq!(majority(&[vec![1], vec![2], vec![1]]), Some(vec![1]));
    }

    /// The tie rule the rewind compiler's per-arc vote relies on: highest
    /// count first, then the lexicographically smallest value, an absent
    /// message ordering below every present one — whatever order the copies
    /// arrive in.
    #[test]
    fn most_frequent_breaks_ties_to_the_smallest_value_with_absent_first() {
        let (a, b, c): (&[u64], &[u64], &[u64]) = (&[7, 1], &[7, 2], &[9]);
        for copies in [[Some(a), Some(b), Some(c)], [Some(c), Some(b), Some(a)]] {
            assert_eq!(most_frequent(copies), Some(Some(a)));
        }
        for copies in [[Some(c), None, Some(a)], [None, Some(a), Some(c)]] {
            assert_eq!(most_frequent(copies), Some(None));
        }
        // A strict majority beats the tie rule.
        assert_eq!(most_frequent([None, Some(c), Some(c)]), Some(Some(c)));
        assert_eq!(most_frequent([Some(a), None, None]), Some(None));
        assert_eq!(most_frequent(Vec::<Option<&[u64]>>::new()), None);
    }

    #[test]
    fn fault_free_broadcast_reaches_everyone() {
        let g = generators::grid(3, 3);
        let tree = bfs_tree(&g, 0);
        let mut net = Network::fault_free(g);
        let out = repeated_tree_broadcast(&mut net, &tree, &vec![42, 43], 1);
        for slot in out.iter().take(9) {
            assert_eq!(*slot, Some(vec![42, 43]));
        }
    }

    #[test]
    fn broadcast_survives_minority_corruption_on_an_edge() {
        let g = generators::path(4);
        let tree = bfs_tree(&g, 0);
        let target = g.edge_between(1, 2).unwrap();
        // A static adversary corrupts edge (1,2) in every round, but we repeat
        // every hop 5 times — wait: a *static always-on* adversary breaks
        // repetition, so use a budget that only allows 2 corruptions in total.
        let strategy = FixedEdges::new(vec![target]).with_mode(CorruptionMode::Constant(9));
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(strategy),
            CorruptionBudget::RoundErrorRate { total: 2 },
            1,
        );
        let out = repeated_tree_broadcast(&mut net, &tree, &vec![7], 5);
        assert_eq!(out[3], Some(vec![7]));
        assert_eq!(out[2], Some(vec![7]));
    }

    #[test]
    fn broadcast_breaks_under_unbounded_static_corruption() {
        // Sanity: the repetition transport is NOT resilient to an adversary that
        // corrupts the same edge every round — that is exactly why the paper
        // needs tree packings rather than a single tree.
        let g = generators::path(3);
        let tree = bfs_tree(&g, 0);
        let target = g.edge_between(1, 2).unwrap();
        let strategy = FixedEdges::new(vec![target]).with_mode(CorruptionMode::Constant(9));
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(strategy),
            CorruptionBudget::Static(vec![target]),
            1,
        );
        let out = repeated_tree_broadcast(&mut net, &tree, &vec![7], 5);
        assert_eq!(out[2], Some(vec![9]));
    }

    #[test]
    fn tree_sum_fault_free() {
        let g = generators::grid(2, 3);
        let tree = bfs_tree(&g, 0);
        let values: Vec<u64> = (0..6).map(|v| v as u64 + 1).collect();
        let mut net = Network::fault_free(g);
        let total = repeated_tree_sum(&mut net, &tree, &values, 1);
        assert_eq!(total, Some(21));
    }

    #[test]
    fn tree_sum_with_light_mobile_noise() {
        let g = generators::complete(6);
        let tree = bfs_tree(&g, 0);
        let values = vec![5u64; 6];
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(1, 3).with_mode(CorruptionMode::Drop)),
            CorruptionBudget::RoundErrorRate { total: 1 },
            3,
        );
        let total = repeated_tree_sum(&mut net, &tree, &values, 5);
        assert_eq!(total, Some(30));
    }

    #[test]
    fn flood_paths_majority_fault_free_and_under_attack() {
        let g = generators::complete(6);
        let paths = edge_disjoint_paths(&g, 0, 5, 5);
        assert_eq!(paths.len(), 5);
        let mut clean = Network::fault_free(g.clone());
        assert_eq!(
            flood_paths_majority(&mut clean, &paths, &vec![1234], 3),
            Some(vec![1234])
        );
        // One mobile fault per round cannot overturn the majority over 5
        // edge-disjoint paths with a sufficiently long window.
        let dilation = paths.iter().map(|p| p.len() - 1).max().unwrap();
        let window = 2 * dilation + dilation + 1; // f = 1
        let mut attacked = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(1, 7).with_mode(CorruptionMode::Constant(666))),
            CorruptionBudget::Mobile { f: 1 },
            7,
        );
        assert_eq!(
            flood_paths_majority(&mut attacked, &paths, &vec![1234], window),
            Some(vec![1234])
        );
    }
}
