//! Quickstart: protect a flooding broadcast against a mobile byzantine
//! adversary on the CONGESTED CLIQUE, in three `Scenario` one-liners.
//!
//! Run with `cargo run --example quickstart`.

use mobile_congest::graphs::generators;
use mobile_congest::payloads::FloodBroadcast;
use mobile_congest::scenario::{CompilerDef, FaultFree, RunReport, Scenario, Uncompiled};
use mobile_congest::sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};

fn main() {
    let n = 16;
    let f = 2;
    let g = generators::complete(n);
    let value = 0xC0FFEE;
    let payload = {
        let g = g.clone();
        move || FloodBroadcast::new(g.clone(), 0, value)
    };

    // 1. Fault-free reference run.
    let reference = Scenario::on(g.clone())
        .payload(payload.clone())
        .compiled_with(FaultFree)
        .run()
        .unwrap();
    println!(
        "fault-free: every node learns {value:#x} in {} rounds",
        reference.payload_rounds
    );

    // 2. Uncompiled baseline under an f-mobile byzantine adversary.
    let baseline = Scenario::on(g.clone())
        .payload(payload.clone())
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(f, 7),
            CorruptionBudget::Mobile { f },
        )
        .seed(7)
        .compiled_with(Uncompiled)
        .run()
        .unwrap();
    println!(
        "uncompiled under f={f} mobile adversary: correct = {:?} ({} messages corrupted)",
        baseline.agrees_with_fault_free(),
        baseline.metrics.corrupted_messages
    );

    // 3. The Theorem 1.6 clique compiler under the same adversary class.
    let compiled = Scenario::on(g.clone())
        .payload(payload)
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(f, 7),
            CorruptionBudget::Mobile { f },
        )
        .seed(7)
        .compiled_with(CompilerDef::Clique { f, seed: 1 })
        .run()
        .unwrap();
    println!("{}", RunReport::table_header());
    println!("{}", baseline.table_row());
    println!("{}", compiled.table_row());
    println!(
        "compiled: payload rounds = {}, network rounds = {}, overhead = {:.1}x, corrupted edge-rounds = {}",
        compiled.payload_rounds,
        compiled.network_rounds,
        compiled.overhead(),
        compiled.metrics.corrupted_edge_rounds
    );
    assert_eq!(
        compiled.agrees_with_fault_free(),
        Some(true),
        "the compiled run must match the fault-free run"
    );
}
