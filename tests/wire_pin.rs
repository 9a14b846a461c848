//! Wire-byte pin for the secure compilers (Theorems 1.2 and 1.3).
//!
//! Campaign trajectories only carry round counts and `agrees`, so they cannot
//! tell a changed keystream, tag or dummy word from an unchanged one.  These
//! tests put an eavesdropper on *every* edge in *every* round — its
//! `view_log()` is then the complete wire — and pin a digest of that view and
//! of the node outputs.  The constants were captured before the key schedule
//! was rewritten to stream its bit extraction (the K12 case: before the
//! tagger ran in vector lanes and the key schedule absorbed two pad rows per
//! pass); any change to pad draw order, extraction arithmetic, keystream
//! layout, tagging or dummy traffic moves them.

use mobile_congest::compilers::secure::{
    broadcast_packing, CongestionSensitiveCompiler, StaticToMobileCompiler,
};
use mobile_congest::graphs::{generators, Graph};
use mobile_congest::harness::json::fnv1a_hex;
use mobile_congest::payloads::TokenDissemination;
use mobile_congest::sim::adversary::{AdversaryRole, CorruptionBudget, FixedEdges};
use mobile_congest::sim::network::Network;
use mobile_congest::sim::traffic::Output;

/// The workspace fingerprint over the little-endian bytes of a word stream.
fn digest(words: impl IntoIterator<Item = u64>) -> String {
    fnv1a_hex(words.into_iter().flat_map(u64::to_le_bytes))
}

fn outputs_digest(outputs: &[Output]) -> String {
    digest(
        outputs
            .iter()
            .flat_map(|o| std::iter::once(o.len() as u64).chain(o.iter().copied())),
    )
}

/// A network whose eavesdropper listens on all edges, all the time.
fn wiretapped(g: &Graph) -> Network {
    let all: Vec<usize> = (0..g.edge_count()).collect();
    Network::new(
        g.clone(),
        AdversaryRole::Eavesdropper,
        Box::new(FixedEdges::new(all.clone())),
        CorruptionBudget::Static(all),
        11,
    )
}

fn tokens(g: &Graph) -> TokenDissemination {
    let tokens = (0..g.node_count() as u64).map(|v| 1000 + 7 * v).collect();
    TokenDissemination::new(g.clone(), tokens, 2)
}

#[test]
fn static_to_mobile_wire_bytes_are_pinned() {
    let g = generators::grid(3, 3);
    let mut net = wiretapped(&g);
    let mut alg = tokens(&g);
    let expected = alg.expected_outputs();
    let (out, report) = StaticToMobileCompiler::new(3, 2, 0xA11CE)
        .run(&mut alg, &mut net)
        .expect("2-word batches fit");
    assert_eq!(out, expected);
    assert_eq!(net.view_log().len(), net.round() * g.edge_count());
    assert_eq!(report.key_rounds, report.simulation_rounds + 3);
    assert_eq!(net.round(), 23);
    assert_eq!(digest(net.view_log().canonical()), "26778149a41c836c");
    assert_eq!(outputs_digest(&out), "e50869c61cf917fc");
}

#[test]
fn congestion_sensitive_wire_bytes_are_pinned() {
    let g = generators::complete(6);
    let mut net = wiretapped(&g);
    let mut alg = tokens(&g);
    let expected = alg.expected_outputs();
    let (out, report) = CongestionSensitiveCompiler::new(1, 2, 0xB0B)
        .run(&mut alg, &mut net, 0, &broadcast_packing(&g, 0, 1))
        .expect("2-word batches fit");
    assert_eq!(out, expected);
    assert_eq!(net.view_log().len(), net.round() * g.edge_count());
    assert!(report.global_key_rounds > 0);
    assert_eq!(net.round(), 32);
    assert_eq!(digest(net.view_log().canonical()), "f59d5d4f2421928b");
    assert_eq!(outputs_digest(&out), "5e128a46a4580b35");
}

/// Theorem 1.3 on K12: 132 arcs, so a round's tags span up to four 32-lane
/// Horner blocks and a ragged tail, and the two key schedules have an even
/// (`ℓ = 3r = 24`, the local exchange) and an odd (`ℓ = 3k = 9`, the
/// broadcast's) number of exchange rounds.
#[test]
fn congestion_sensitive_wire_bytes_are_pinned_on_k12() {
    let g = generators::complete(12);
    let mut net = wiretapped(&g);
    let mut alg = tokens(&g);
    let expected = alg.expected_outputs();
    let (out, report) = CongestionSensitiveCompiler::new(1, 2, 0xC0DE)
        .run(&mut alg, &mut net, 0, &broadcast_packing(&g, 0, 1))
        .expect("2-word batches fit");
    assert_eq!(out, expected);
    assert_eq!(g.arc_count(), 132);
    assert_eq!(net.view_log().len(), net.round() * g.edge_count());
    assert_eq!(report.local_key_rounds, 24);
    assert_eq!(report.global_key_rounds, 12);
    assert_eq!(net.round(), 44);
    assert_eq!(digest(net.view_log().canonical()), "2379851d3e0eace3");
    assert_eq!(outputs_digest(&out), "4e6e90f7a6e957d5");
}
