//! CONGESTED CLIQUE token dissemination against a Θ(n)-mobile byzantine
//! adversary (Theorem 1.6), compared with the uncompiled baseline — both runs
//! configured through the `Scenario` pipeline.
//!
//! Run with `cargo run --example byzantine_clique`.

use mobile_congest::compilers::resilient::CliqueCompiler;
use mobile_congest::graphs::generators;
use mobile_congest::payloads::TokenDissemination;
use mobile_congest::scenario::{CompilerDef, Scenario, Uncompiled};
use mobile_congest::sim::adversary::{
    AdversaryRole, CorruptionBudget, CorruptionMode, GreedyHeaviest,
};

fn main() {
    let n = 20;
    let f = CliqueCompiler::max_tolerable_f(n);
    println!("clique n = {n}, tolerating f = {f} mobile byzantine edges per round");
    let g = generators::complete(n);
    let tokens: Vec<u64> = (0..n as u64).map(|v| 10_000 + v).collect();
    let payload = {
        let g = g.clone();
        move || TokenDissemination::new(g.clone(), tokens.clone(), n)
    };

    let baseline = Scenario::on(g.clone())
        .payload(payload.clone())
        .adversary(
            AdversaryRole::Byzantine,
            GreedyHeaviest::new(f).with_mode(CorruptionMode::ReplaceRandom),
            CorruptionBudget::Mobile { f },
        )
        .seed(3)
        .compiled_with(Uncompiled)
        .run()
        .unwrap();
    println!(
        "uncompiled: correct = {:?} (adversary rewrote {} messages)",
        baseline.agrees_with_fault_free(),
        baseline.metrics.corrupted_messages
    );

    let compiled = Scenario::on(g)
        .payload(payload)
        .adversary(
            AdversaryRole::Byzantine,
            GreedyHeaviest::new(f).with_mode(CorruptionMode::ReplaceRandom),
            CorruptionBudget::Mobile { f },
        )
        .seed(3)
        .compiled_with(CompilerDef::Clique { f, seed: 11 })
        .run()
        .unwrap();
    println!(
        "compiled:   correct = {:?}, overhead = {:.1}x ({} network rounds for {} payload rounds)",
        compiled.agrees_with_fault_free(),
        compiled.overhead(),
        compiled.network_rounds,
        compiled.payload_rounds
    );
    assert_eq!(compiled.agrees_with_fault_free(), Some(true));
}
