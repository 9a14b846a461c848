//! The expander compiler (Theorem 1.7, Lemma 3.10): computing a weak tree
//! packing *while under attack*, then compiling through it.
//!
//! Unlike the general-graph compiler, the expander compiler needs no trusted
//! preprocessing: every edge picks a random colour in `[k]`, every colour class
//! of a good expander is itself a (slightly worse) expander, and a max-id BFS
//! inside each colour class builds a shallow spanning tree.  A mobile adversary
//! controlling `f` edges per round can spoil at most `f·(rounds)` colours, so
//! with `k = Θ(f·log n/φ)` colours at least `0.9k` trees survive — a weak
//! packing (Definition 7) over which the Theorem 3.5 compiler runs.

use crate::resilient::correction::UnpackableMessage;
use crate::resilient::tree_compiler::{ByzantineCompilerReport, MobileByzantineCompiler};
use congest_sim::network::Network;
use congest_sim::traffic::{Output, Traffic};
use congest_sim::CongestAlgorithm;
use netgraph::spanning::RootedTree;
use netgraph::tree_packing::TreePacking;
use netgraph::{Graph, NodeId};
use rand::Rng;

/// Report of the packing-construction phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeakPackingReport {
    /// Number of colour classes / trees built.
    pub k: usize,
    /// Number of trees that are spanning trees rooted at the max-id node with
    /// height at most the BFS budget.
    pub good_trees: usize,
    /// Network rounds spent building the packing.
    pub rounds: usize,
    /// Height budget used for the BFS phase.
    pub depth_budget: usize,
}

/// Build a weak tree packing under the network's (byzantine) adversary by the
/// Lemma 3.10 edge-colouring + per-colour max-id BFS procedure.
///
/// `k` is the number of colours, `bfs_rounds` the number of propagation rounds
/// (use `Θ(log n / φ)`).  The packing is rooted at the maximum-id node `n - 1`.
pub fn weak_packing_under_attack(
    net: &mut Network,
    k: usize,
    bfs_rounds: usize,
    seed: u64,
) -> (TreePacking, WeakPackingReport) {
    let g = net.graph().clone();
    let n = g.node_count();
    let root: NodeId = n - 1;
    let start = net.round();
    net.tracer_mut().span_open(obs::Phase::Packing);
    let mut node_rngs: Vec<_> = g.nodes().map(|v| Network::node_rng(seed, v)).collect();

    // Round 1: the higher-id endpoint of every edge draws a colour and sends it
    // to the lower-id endpoint.  Each endpoint keeps its own belief of the
    // colour; a corrupted colour message simply spoils that colour class.
    let mut colour_belief: Vec<[Option<usize>; 2]> = vec![[None, None]; g.edge_count()];
    let mut traffic = Traffic::new(&g);
    for e in 0..g.edge_count() {
        let edge = g.edge(e);
        let (hi, lo) = (edge.v.max(edge.u), edge.v.min(edge.u));
        let colour = node_rngs[hi].gen_range(0..k);
        colour_belief[e][endpoint_slot(&g, e, hi)] = Some(colour);
        traffic.send(&g, hi, lo, vec![colour as u64]);
    }
    let delivered = net.exchange(traffic);
    for e in 0..g.edge_count() {
        let edge = g.edge(e);
        let (hi, lo) = (edge.v.max(edge.u), edge.v.min(edge.u));
        if let Some(msg) = delivered.get(&g, hi, lo) {
            let c = msg[0] as usize;
            if c < k {
                colour_belief[e][endpoint_slot(&g, e, lo)] = Some(c);
            }
        }
    }

    // BFS phase: every node tracks, per colour, the largest id it has heard and
    // the neighbour it heard it from.  One message per edge per round (an edge
    // carries its own colour's wave).
    let mut best_id: Vec<Vec<u64>> = (0..n).map(|v| vec![v as u64; k]).collect();
    let mut parent: Vec<Vec<Option<NodeId>>> = vec![vec![None; k]; n];
    let mut traffic = Traffic::new(&g);
    for _ in 0..bfs_rounds {
        traffic.begin_round(&g);
        for v in g.nodes() {
            for &(u, e) in g.neighbors(v) {
                if let Some(c) = colour_belief[e][endpoint_slot(&g, e, v)] {
                    traffic.send(&g, v, u, [c as u64, best_id[v][c]]);
                }
            }
        }
        net.exchange_in_place(&mut traffic);
        for v in g.nodes() {
            for (from, payload) in traffic.inbox(&g, v) {
                let e = g.edge_between(from, v).unwrap();
                let my_colour = colour_belief[e][endpoint_slot(&g, e, v)];
                if payload.len() < 2 {
                    continue;
                }
                let (c, claimed) = (payload[0] as usize, payload[1]);
                // Only accept the wave if both endpoints agree on the colour and
                // the claimed id is a plausible node id.
                if my_colour == Some(c) && c < k && claimed < n as u64 && claimed > best_id[v][c] {
                    best_id[v][c] = claimed;
                    parent[v][c] = Some(from);
                }
            }
        }
    }

    // Assemble one tree per colour from the parent pointers.
    let trees: Vec<RootedTree> = (0..k)
        .map(|c| {
            let parents: Vec<Option<NodeId>> = (0..n)
                .map(|v| if v == root { None } else { parent[v][c] })
                .collect();
            RootedTree::from_parents(&g, root, parents)
        })
        .collect();
    let packing = TreePacking::new(trees);
    net.tracer_mut().span_close(obs::Phase::Packing);
    let good = packing.count_good(&g, root, bfs_rounds);
    let report = WeakPackingReport {
        k,
        good_trees: good,
        rounds: net.round() - start,
        depth_budget: bfs_rounds,
    };
    (packing, report)
}

fn endpoint_slot(g: &Graph, e: usize, node: NodeId) -> usize {
    if g.edge(e).u == node {
        0
    } else {
        1
    }
}

/// Report of a full expander-compiler run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpanderCompilerReport {
    /// The packing-construction phase.
    pub packing: WeakPackingReport,
    /// The compilation phase.
    pub compilation: ByzantineCompilerReport,
}

/// The Theorem 1.7 compiler: build the weak packing under attack, then run the
/// Theorem 3.5 compiler over it.  `k` and `bfs_rounds` should be chosen as
/// `k = Θ(f log n / φ)` and `bfs_rounds = Θ(log n / φ)`.  Fails like
/// [`MobileByzantineCompiler::run`].
pub fn run_expander_compiled<A: CongestAlgorithm + ?Sized>(
    alg: &mut A,
    net: &mut Network,
    f: usize,
    k: usize,
    bfs_rounds: usize,
    seed: u64,
) -> Result<(Vec<Output>, ExpanderCompilerReport), UnpackableMessage> {
    let (packing, packing_report) = weak_packing_under_attack(net, k, bfs_rounds, seed);
    let compiler = MobileByzantineCompiler::new(net.graph(), packing, f, seed ^ 0xE0);
    let (out, compilation) = compiler.run(alg, net)?;
    Ok((
        out,
        ExpanderCompilerReport {
            packing: packing_report,
            compilation,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::{FloodBroadcast, LeaderElection};
    use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
    use congest_sim::run_fault_free;
    use netgraph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn expander(n: usize, d: usize, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::random_regular(&mut rng, n, d)
    }

    fn byz_net(g: Graph, f: usize, seed: u64) -> Network {
        Network::new(
            g,
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(f, seed)),
            CorruptionBudget::Mobile { f },
            seed,
        )
    }

    #[test]
    fn fault_free_weak_packing_is_mostly_good() {
        // Per-colour average degree d/k must stay well above the connectivity
        // threshold of a random subgraph (~ln n) for every class to span.
        let g = expander(40, 16, 1);
        let mut net = Network::fault_free(g.clone());
        let (packing, report) = weak_packing_under_attack(&mut net, 2, 10, 3);
        assert_eq!(packing.len(), 2);
        assert!(
            report.good_trees * 10 >= 9 * report.k,
            "only {}/{} trees good",
            report.good_trees,
            report.k
        );
        // Load is at most 2 because every edge belongs to at most one colour
        // (one belief per endpoint).
        assert!(packing.load(&g) <= 2);
    }

    #[test]
    fn weak_packing_under_mobile_attack_keeps_a_majority_good() {
        // Colour classes must stay dense enough to span (m/k ≳ 2n), so the graph
        // is dense and the colour count moderate.
        let g = expander(56, 42, 2);
        let f = 1;
        let mut net = byz_net(g.clone(), f, 5);
        let (packing, report) = weak_packing_under_attack(&mut net, 5, 8, 7);
        assert!(
            report.good_trees * 2 > packing.len(),
            "majority of colour trees must survive: {}/{}",
            report.good_trees,
            packing.len()
        );
    }

    #[test]
    fn expander_compiler_end_to_end() {
        let g = expander(48, 24, 3);
        let f = 1;
        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        let mut net = byz_net(g.clone(), f, 9);
        let (out, report) =
            run_expander_compiled(&mut LeaderElection::new(g.clone()), &mut net, f, 6, 6, 11)
                .unwrap();
        assert_eq!(out, expected);
        assert!(report.compilation.fully_corrected);
    }

    #[test]
    fn expander_compiler_broadcast_payload() {
        let g = expander(48, 24, 4);
        let f = 1;
        let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 31337));
        let mut net = byz_net(g.clone(), f, 4);
        let (out, _) = run_expander_compiled(
            &mut FloodBroadcast::new(g.clone(), 0, 31337),
            &mut net,
            f,
            6,
            6,
            13,
        )
        .unwrap();
        assert_eq!(out, expected);
    }
}
