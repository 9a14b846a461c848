//! Mobile-secure unicast and multicast (Lemma A.3).
//!
//! The static building block is a *light* secure message transmission scheme:
//! the secret is split into XOR shares, one per edge-disjoint `s`–`t` path, and
//! each share is pipelined along its path — at most one message crosses any
//! edge, and an eavesdropper that misses at least one path entirely learns
//! nothing (information-theoretically).
//!
//! > **Substitution note** (see "Deviations from the paper" in
//! > `docs/ARCHITECTURE.md`): the paper uses Jain's
//! > network-coding unicast, whose security condition is "`F` does not
//! > disconnect `s` from `t`".  The share-per-disjoint-path scheme used here
//! > preserves the properties the mobile compilation relies on — exactly one
//! > message per edge, `O(D)` rounds — with the marginally stronger condition
//! > "`F₁` misses at least one of the `s`–`t` paths".
//!
//! The mobile wrapper is the paper's: one extra preliminary round in which all
//! neighbours exchange fresh pads `K(u,v)`, after which every message of the
//! static scheme is sent XOR-encrypted with its edge's pad.  Because the static
//! scheme uses each edge at most once, each pad is used at most once, and the
//! argument of Claim 3 applies: the adversary's constraint only concerns the
//! edges it controlled in the *pad-exchange round*.

use congest_sim::network::Network;
use congest_sim::traffic::Traffic;
use netgraph::connectivity::edge_disjoint_paths;
use netgraph::NodeId;
use rand::Rng;

/// One unicast instance: send `secret` from `source` to `target`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnicastInstance {
    /// The sending node.
    pub source: NodeId,
    /// The receiving node.
    pub target: NodeId,
    /// The secret word to transmit.
    pub secret: u64,
}

/// Result of a (multi-)unicast run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnicastReport {
    /// Value recovered by each instance's target (`None` if nothing arrived).
    pub recovered: Vec<Option<u64>>,
    /// Total network rounds consumed.
    pub rounds: usize,
    /// Maximum number of messages that crossed any single edge.
    pub congestion: usize,
}

/// Run a single mobile-secure unicast.  Convenience wrapper around
/// [`mobile_secure_multicast`] with one instance.
pub fn mobile_secure_unicast(
    net: &mut Network,
    source: NodeId,
    target: NodeId,
    secret: u64,
    seed: u64,
) -> UnicastReport {
    mobile_secure_multicast(
        net,
        &[UnicastInstance {
            source,
            target,
            secret,
        }],
        seed,
    )
}

/// Run `R` mobile-secure unicast instances (Lemma A.3's multicast): `R` rounds
/// of pad exchange, then all instances' share pipelines run in parallel, each
/// instance's messages encrypted with its own pad lane.
///
/// # Panics
///
/// Panics if some instance has `source == target`.
pub fn mobile_secure_multicast(
    net: &mut Network,
    instances: &[UnicastInstance],
    seed: u64,
) -> UnicastReport {
    let g = net.graph().clone();
    let r = instances.len();
    assert!(
        instances.iter().all(|i| i.source != i.target),
        "unicast requires distinct endpoints"
    );
    let start_round = net.round();

    // Phase 1: R rounds of pad exchange; lane j of pads protects instance j.
    // pads[lane][arc] known to both endpoints (eavesdropper is passive).
    let mut node_rngs: Vec<_> = g.nodes().map(|v| Network::node_rng(seed, v)).collect();
    let mut pads: Vec<Vec<u64>> = Vec::with_capacity(r);
    for _lane in 0..r {
        let mut lane_pads = vec![0u64; g.arc_count()];
        let mut traffic = Traffic::new(&g);
        for v in g.nodes() {
            for &(u, e) in g.neighbors(v) {
                let arc = g.arc(e, v, u);
                let pad: u64 = node_rngs[v].gen();
                lane_pads[arc] = pad;
                traffic.send(&g, v, u, vec![pad]);
            }
        }
        let _ = net.exchange(traffic);
        pads.push(lane_pads);
    }

    // Phase 2: for each instance, split the secret into XOR shares over its
    // edge-disjoint paths and pipeline the shares, all instances in parallel.
    struct Pipe {
        instance: usize,
        path: Vec<NodeId>,
        /// share value currently held at position `hop` (None = not yet arrived).
        holder: Vec<Option<u64>>,
        /// whether the share has reached the target.
        done: bool,
    }
    let mut pipes: Vec<Pipe> = Vec::new();
    let mut expected_shares: Vec<usize> = vec![0; r];
    for (idx, inst) in instances.iter().enumerate() {
        let paths = edge_disjoint_paths(&g, inst.source, inst.target, usize::MAX);
        assert!(
            !paths.is_empty(),
            "source and target must be connected for unicast"
        );
        expected_shares[idx] = paths.len();
        // XOR share split using the source's private randomness.
        let mut shares: Vec<u64> = (0..paths.len() - 1)
            .map(|_| node_rngs[inst.source].gen())
            .collect();
        let xor_rest = shares.iter().fold(inst.secret, |a, &b| a ^ b);
        shares.push(xor_rest);
        for (p, share) in paths.into_iter().zip(shares) {
            let mut holder = vec![None; p.len()];
            holder[0] = Some(share);
            pipes.push(Pipe {
                instance: idx,
                path: p,
                holder,
                done: false,
            });
        }
    }

    let max_len = pipes.iter().map(|p| p.path.len()).max().unwrap_or(1);
    let mut received_shares: Vec<Vec<u64>> = vec![Vec::new(); r];

    // Pipelines of different instances may want the same arc in the same round
    // (their paths are only edge-disjoint *within* an instance); conflicting
    // pipes defer to the next round, in the spirit of the random-delay
    // scheduling of Theorem 1.9, so the loop budget includes the pipe count.
    for _step in 0..(max_len + pipes.len()) {
        let mut traffic = Traffic::new(&g);
        let mut used_arcs = vec![false; g.arc_count()];
        // Each pipe advances its frontier share by one hop, encrypted with the
        // pad of its instance's lane on the traversed arc.
        let mut planned: Vec<(usize, usize, u64)> = Vec::new(); // (pipe, hop, plain share)
        for (pi, pipe) in pipes.iter().enumerate() {
            if pipe.done {
                continue;
            }
            for hop in 0..pipe.path.len() - 1 {
                if let Some(share) = pipe.holder[hop] {
                    if pipe.holder[hop + 1].is_none() {
                        let from = pipe.path[hop];
                        let to = pipe.path[hop + 1];
                        let arc = g.arc_between(from, to).expect("path edge exists");
                        if used_arcs[arc] {
                            break; // defer this pipe to the next round
                        }
                        used_arcs[arc] = true;
                        let cipher = share ^ pads[pipe.instance][arc];
                        traffic.send(&g, from, to, vec![cipher]);
                        planned.push((pi, hop, share));
                        break; // one frontier per pipe per round
                    }
                }
            }
        }
        if planned.is_empty() {
            break;
        }
        let delivered = net.exchange(traffic);
        for (pi, hop, _plain) in planned {
            let pipe = &mut pipes[pi];
            let from = pipe.path[hop];
            let to = pipe.path[hop + 1];
            let arc = g.arc_between(from, to).unwrap();
            if let Some(msg) = delivered.get(&g, from, to) {
                let share = msg[0] ^ pads[pipe.instance][arc];
                if hop + 1 == pipe.path.len() - 1 {
                    received_shares[pipe.instance].push(share);
                    pipe.done = true;
                } else {
                    pipe.holder[hop + 1] = Some(share);
                }
            }
        }
    }

    let recovered = (0..r)
        .map(|i| {
            if received_shares[i].len() == expected_shares[i] {
                Some(received_shares[i].iter().fold(0u64, |a, &b| a ^ b))
            } else {
                None
            }
        })
        .collect();
    UnicastReport {
        recovered,
        rounds: net.round() - start_round,
        congestion: net.metrics().max_edge_congestion(),
    }
}

/// The plain (non-secure) baseline: send the secret directly hop-by-hop along a
/// single shortest path with no encryption — the positive control showing
/// what the eavesdropper sees without the compiler.
#[cfg(test)]
pub(crate) fn plain_unicast_baseline(
    net: &mut Network,
    source: NodeId,
    target: NodeId,
    secret: u64,
) -> Option<u64> {
    let g = net.graph().clone();
    let path = netgraph::traversal::bfs(&g, source).path_to(target)?;
    let mut carried = Some(secret);
    for w in path.windows(2) {
        let mut traffic = Traffic::new(&g);
        if let Some(val) = carried {
            traffic.send(&g, w[0], w[1], vec![val]);
        }
        let delivered = net.exchange(traffic);
        carried = delivered.get(&g, w[0], w[1]).map(|p| p[0]);
    }
    carried
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::adversary::{
        AdversaryRole, CorruptionBudget, NoAdversary, RandomMobile, ScheduledEdges,
    };
    use netgraph::{generators, Graph};

    fn eaves_net(g: Graph, f: usize, seed: u64) -> Network {
        Network::new(
            g,
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(f, seed)),
            CorruptionBudget::Mobile { f },
            seed,
        )
    }

    #[test]
    fn unicast_delivers_the_secret() {
        for g in [
            generators::cycle(8),
            generators::complete(6),
            generators::grid(3, 3),
            generators::path(16),
            generators::cycle(20),
            generators::grid(5, 5),
            generators::complete(12),
        ] {
            let target = g.node_count() - 1;
            let mut net = eaves_net(g.clone(), 2, 3);
            let report = mobile_secure_unicast(&mut net, 0, target, 0xFEED_FACE, 7);
            assert_eq!(report.recovered[0], Some(0xFEED_FACE));
            // One pad round, then every share one hop per round: the paths
            // of one instance are edge-disjoint, so none waits.
            let longest = edge_disjoint_paths(&g, 0, target, usize::MAX)
                .iter()
                .map(|p| p.len() - 1)
                .max()
                .unwrap();
            assert_eq!(report.rounds, 1 + longest);
            assert!(report.congestion <= 3);
        }
    }

    #[test]
    fn unicast_congestion_is_constant() {
        let g = generators::complete(7);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(NoAdversary),
            CorruptionBudget::None,
            0,
        );
        let report = mobile_secure_unicast(&mut net, 0, 6, 99, 1);
        assert_eq!(report.recovered[0], Some(99));
        // Pad exchange (1 per edge per direction = 2 per edge) + at most one
        // share message per edge.
        assert!(
            report.congestion <= 3,
            "congestion {} too high",
            report.congestion
        );
    }

    /// Lemma A.3's `O(D + R)` multicast, exactly, on a clique: `R` pad
    /// rounds, then `R + 1` share rounds — every instance leaves the common
    /// source over all `n − 1` of its arcs (the direct edge and one two-hop
    /// path per relay), so the instances take those arcs in turn and the last
    /// one's relayed shares land a round later.
    #[test]
    fn multicast_many_instances() {
        for (n, r, net_seed, seed) in [
            (8usize, 5usize, 9u64, 11u64),
            (12, 2, 11, 13),
            (12, 5, 11, 13),
            (12, 10, 11, 13),
        ] {
            let g = generators::complete(n);
            let instances: Vec<UnicastInstance> = (1..=r)
                .map(|i| UnicastInstance {
                    source: 0,
                    target: i,
                    secret: 1000 + i as u64,
                })
                .collect();
            let mut net = eaves_net(g.clone(), 2, net_seed);
            let report = mobile_secure_multicast(&mut net, &instances, seed);
            for (i, inst) in instances.iter().enumerate() {
                assert_eq!(report.recovered[i], Some(inst.secret), "K{n} R={r}");
            }
            assert_eq!(report.rounds, 2 * r + 1, "K{n} R={r}");
        }
    }

    #[test]
    #[should_panic]
    fn unicast_rejects_self_send() {
        let g = generators::cycle(4);
        let mut net = eaves_net(g, 1, 1);
        let _ = mobile_secure_unicast(&mut net, 2, 2, 1, 1);
    }

    /// Security: an eavesdropper that never observes the pad-exchange round and
    /// misses one full path sees only one-time-padded shares; two runs with
    /// different secrets but coupled adversary schedules produce views that are
    /// (a) plaintext-free and (b) determined by the hidden pads, not the secret.
    #[test]
    fn eavesdropper_view_does_not_contain_the_secret() {
        let g = generators::cycle(6);
        // Observe one fixed edge in every round *after* the pad exchange.
        let schedule: Vec<Vec<usize>> = std::iter::once(vec![])
            .chain(std::iter::repeat_n(vec![0usize], 12))
            .collect();
        let secret = 0xDEAD_BEEF_u64;
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(ScheduledEdges::new(schedule)),
            CorruptionBudget::Mobile { f: 1 },
            1,
        );
        let report = mobile_secure_unicast(&mut net, 0, 3, secret, 5);
        assert_eq!(report.recovered[0], Some(secret));
        for entry in &net.view_log().entries {
            for p in [&entry.forward, &entry.backward].into_iter().flatten() {
                assert!(!p.contains(&secret), "secret leaked in the clear");
            }
        }
    }

    #[test]
    fn plain_baseline_leaks_the_secret_to_the_eavesdropper() {
        let g = generators::path(4);
        // Observe the middle edge in every round.
        let mid = g.edge_between(1, 2).unwrap();
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(congest_sim::adversary::FixedEdges::new(vec![mid])),
            CorruptionBudget::Static(vec![mid]),
            0,
        );
        let secret = 0xABCD_u64;
        let out = plain_unicast_baseline(&mut net, 0, 3, secret);
        assert_eq!(out, Some(secret));
        let leaked = net.view_log().entries.iter().any(|e| {
            e.forward.as_deref() == Some(&[secret][..])
                || e.backward.as_deref() == Some(&[secret][..])
        });
        assert!(leaked, "baseline must demonstrably leak");
    }
}
