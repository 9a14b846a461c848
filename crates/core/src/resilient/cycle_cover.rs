//! The fault-tolerant-cycle-cover compiler (Theorems 1.4 / 5.5).
//!
//! For graphs that are only `(2f+1)`-edge-connected (too sparse for the
//! tree-packing machinery) and small `f`, every round of the protected
//! algorithm is simulated by flooding each message over the `2f+1`
//! edge-disjoint paths of its edge's path system, for a window of
//! `2·f·dilation + dilation + 1` rounds, and taking the majority at the
//! receiver (Lemma 5.6).  Path systems are processed colour class by colour
//! class using the good cycle colouring of Lemma 5.2, so that systems handled
//! together never share an edge.

use congest_sim::network::Network;
use congest_sim::traffic::{Output, Payload, Traffic};
use congest_sim::CongestAlgorithm;
use netgraph::cycle_cover::FtCycleCover;
use netgraph::{EdgeId, Graph, NodeId};
use std::collections::BTreeMap;

/// Report of a cycle-cover-compiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleCoverReport {
    /// Paths per edge (`2f + 1`).
    pub paths_per_edge: usize,
    /// Dilation of the cover.
    pub dilation: usize,
    /// Congestion of the cover.
    pub congestion: usize,
    /// Number of colour classes processed per simulated round.
    pub colors: usize,
    /// Total network rounds consumed.
    pub network_rounds: usize,
    /// Rounds of the protected algorithm.
    pub payload_rounds: usize,
}

/// The Theorem 1.4 compiler.
#[derive(Debug, Clone)]
pub struct CycleCoverCompiler {
    cover: FtCycleCover,
    coloring: BTreeMap<EdgeId, usize>,
    f: usize,
}

impl CycleCoverCompiler {
    /// Build the compiler for an `f`-mobile adversary on a `(2f+1)`-edge-connected
    /// graph.  Returns `None` if the graph is not sufficiently connected.
    pub fn new(g: &Graph, f: usize) -> Option<Self> {
        let cover = FtCycleCover::build(g, 2 * f + 1)?;
        let coloring = cover.good_coloring(g);
        Some(CycleCoverCompiler { cover, coloring, f })
    }

    /// The underlying cover.
    pub fn cover(&self) -> &FtCycleCover {
        &self.cover
    }

    /// Run the compiled algorithm on the network.
    pub fn run<A: CongestAlgorithm + ?Sized>(
        &self,
        alg: &mut A,
        net: &mut Network,
    ) -> (Vec<Output>, CycleCoverReport) {
        let g = net.graph().clone();
        let start = net.round();
        let r = alg.rounds();
        let dilation = self.cover.dilation().max(1);
        let window = 2 * self.f * dilation + dilation + 1;
        let num_colors = self
            .coloring
            .values()
            .copied()
            .max()
            .map(|c| c + 1)
            .unwrap_or(0);

        let mut sent = Traffic::new(&g);
        for round in 0..r {
            alg.send_into(round, &mut sent);
            let mut corrected = Traffic::new(&g);
            // Process colour classes one after the other; within a class all
            // path systems are edge-disjoint, so all their floods share rounds.
            for colour in 0..num_colors {
                let mut instances: Vec<FloodInstance> = Vec::new();
                for (&eid, paths) in &self.cover.paths {
                    if self.coloring.get(&eid) != Some(&colour) {
                        continue;
                    }
                    let edge = g.edge(eid);
                    for (from, to) in [(edge.u, edge.v), (edge.v, edge.u)] {
                        if let Some(payload) = sent.get(&g, from, to) {
                            let oriented: Vec<Vec<NodeId>> = paths
                                .iter()
                                .map(|p| {
                                    if p[0] == from {
                                        p.clone()
                                    } else {
                                        p.iter().rev().copied().collect()
                                    }
                                })
                                .collect();
                            instances.push(FloodInstance {
                                from,
                                to,
                                payload: payload.to_vec(),
                                paths: oriented,
                            });
                        }
                    }
                }
                if instances.is_empty() {
                    continue;
                }
                let decided = flood_instances(net, &instances, window);
                for (inst, value) in instances.iter().zip(decided) {
                    if let Some(v) = value {
                        corrected.send(&g, inst.from, inst.to, v);
                    }
                }
            }
            alg.receive(round, &corrected);
        }

        (
            alg.outputs(),
            CycleCoverReport {
                paths_per_edge: self.cover.paths_per_edge(),
                dilation,
                congestion: self.cover.congestion(&g),
                colors: num_colors,
                network_rounds: net.round() - start,
                payload_rounds: r,
            },
        )
    }
}

struct FloodInstance {
    from: NodeId,
    to: NodeId,
    payload: Payload,
    paths: Vec<Vec<NodeId>>,
}

/// Flood several (edge-disjoint-by-construction) instances simultaneously:
/// every path keeps forwarding its current value every round for
/// `dilation + window` rounds; the target takes the majority of everything that
/// arrived over the last hops.
fn flood_instances(
    net: &mut Network,
    instances: &[FloodInstance],
    window: usize,
) -> Vec<Option<Payload>> {
    let g = net.graph().clone();
    let dilation = instances
        .iter()
        .flat_map(|i| i.paths.iter().map(|p| p.len() - 1))
        .max()
        .unwrap_or(0);
    let total_rounds = dilation + window;
    // holder[instance][path][hop] = value currently held at that hop.
    let mut holder: Vec<Vec<Vec<Option<Payload>>>> = instances
        .iter()
        .map(|inst| {
            inst.paths
                .iter()
                .map(|p| {
                    let mut h = vec![None; p.len()];
                    h[0] = Some(inst.payload.clone());
                    h
                })
                .collect()
        })
        .collect();
    let mut arrived: Vec<Vec<Payload>> = vec![Vec::new(); instances.len()];

    let mut traffic = Traffic::new(&g);
    for _ in 0..total_rounds {
        traffic.begin_round(&g);
        for (ii, inst) in instances.iter().enumerate() {
            for (pi, path) in inst.paths.iter().enumerate() {
                for hop in 0..path.len() - 1 {
                    if let Some(val) = &holder[ii][pi][hop] {
                        traffic.send(&g, path[hop], path[hop + 1], val);
                    }
                }
            }
        }
        net.exchange_in_place(&mut traffic);
        for (ii, inst) in instances.iter().enumerate() {
            for (pi, path) in inst.paths.iter().enumerate() {
                for hop in (0..path.len() - 1).rev() {
                    if holder[ii][pi][hop].is_some() {
                        if let Some(msg) = traffic.get(&g, path[hop], path[hop + 1]) {
                            if hop + 1 == path.len() - 1 {
                                arrived[ii].push(msg.to_vec());
                            } else {
                                holder[ii][pi][hop + 1] = Some(msg.to_vec());
                            }
                        }
                    }
                }
            }
        }
    }

    arrived
        .iter()
        .map(|values| interactive_coding::majority(values))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::{FloodBroadcast, LeaderElection};
    use congest_sim::adversary::{AdversaryRole, CorruptionBudget, CorruptionMode, RandomMobile};
    use congest_sim::run_fault_free;
    use netgraph::generators;

    fn byz_net(g: Graph, f: usize, seed: u64) -> Network {
        Network::new(
            g,
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(f, seed).with_mode(CorruptionMode::Constant(13))),
            CorruptionBudget::Mobile { f },
            seed,
        )
    }

    #[test]
    fn insufficient_connectivity_is_rejected() {
        let g = generators::cycle(6); // 2-edge-connected: f = 1 needs 3
        assert!(CycleCoverCompiler::new(&g, 1).is_none());
        assert!(CycleCoverCompiler::new(&g, 0).is_some());
    }

    #[test]
    fn cycle_cover_compiler_on_circulant_f1() {
        let g = generators::circulant(9, 2); // 4-edge-connected ≥ 2f+1 for f=1
        let f = 1;
        let compiler = CycleCoverCompiler::new(&g, f).expect("sufficiently connected");
        let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 88));
        let mut net = byz_net(g.clone(), f, 3);
        let (out, report) = compiler.run(&mut FloodBroadcast::new(g.clone(), 0, 88), &mut net);
        assert_eq!(out, expected);
        assert_eq!(report.paths_per_edge, 3);
        assert!(report.network_rounds > report.payload_rounds);
    }

    #[test]
    fn cycle_cover_compiler_leader_election_clique() {
        let g = generators::complete(7);
        let f = 1;
        let compiler = CycleCoverCompiler::new(&g, f).unwrap();
        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        let mut net = byz_net(g.clone(), f, 9);
        let (out, _) = compiler.run(&mut LeaderElection::new(g.clone()), &mut net);
        assert_eq!(out, expected);
    }

    #[test]
    fn fault_free_run_has_zero_overpayment_in_correctness() {
        let g = generators::circulant(8, 2);
        let compiler = CycleCoverCompiler::new(&g, 1).unwrap();
        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        let mut net = Network::fault_free(g.clone());
        let (out, _) = compiler.run(&mut LeaderElection::new(g.clone()), &mut net);
        assert_eq!(out, expected);
    }
}
