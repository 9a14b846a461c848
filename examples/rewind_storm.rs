//! The round-error-rate setting (Theorem 4.1): an adversary that stays quiet
//! and then corrupts a burst of edges, against the rewind-if-error compiler.
//!
//! Run with `cargo run --example rewind_storm`.

use mobile_congest::graphs::generators;
use mobile_congest::payloads::LeaderElection;
use mobile_congest::scenario::{CompilerDef, Scenario};
use mobile_congest::sim::adversary::{AdversaryRole, BurstAdversary, CorruptionBudget};

fn main() {
    let n = 14;
    let f = 1;
    let g = generators::complete(n);

    // Quiet for 40 rounds, then 4 rounds in which 12 edges are corrupted — far
    // more than any fixed per-round budget, but within the average-rate budget.
    let gg = g.clone();
    let report = Scenario::on(g)
        .payload(move || LeaderElection::new(gg.clone()))
        .adversary(
            AdversaryRole::Byzantine,
            BurstAdversary::new(40, 4, 12, 9),
            CorruptionBudget::RoundErrorRate { total: 200 },
        )
        .seed(9)
        .compiled_with(CompilerDef::Rewind { f, seed: 3 })
        .run()
        .unwrap();
    println!(
        "rewind compiler: correct = {:?}, {} payload rounds simulated in {} network rounds ({:.1}x), {} edge-rounds corrupted",
        report.agrees_with_fault_free(),
        report.payload_rounds,
        report.network_rounds,
        report.overhead(),
        report.metrics.corrupted_edge_rounds
    );
    // The typed diagnostics channel: the compiler reports exactly how often
    // the burst forced it to rewind.
    println!(
        "typed notes: {:?} ({})",
        report.notes,
        report.notes.summary()
    );
    assert_eq!(report.agrees_with_fault_free(), Some(true));
    assert!(
        report.notes.rewinds().expect("rewind notes") >= 1,
        "the burst should force at least one rewind"
    );
}
