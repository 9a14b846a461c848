//! Secure aggregation: a sensor grid computes the sum of its readings while a
//! mobile eavesdropper taps a changing set of links every round.
//!
//! Demonstrates the Theorem 1.2 static→mobile key exchange and the Theorem 1.3
//! congestion-sensitive compiler through the `Scenario` pipeline, and shows
//! that the plaintext readings never appear in the adversary's recorded view.
//!
//! Run with `cargo run --example secure_aggregation`.

use mobile_congest::graphs::generators;
use mobile_congest::payloads::ConvergecastSum;
use mobile_congest::scenario::{CompilerDef, Scenario};
use mobile_congest::sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};

fn main() {
    let g = generators::grid(4, 4);
    let readings: Vec<u64> = (0..16).map(|v| 100 + 7 * v).collect();
    let f = 2;
    let payload = {
        let g = g.clone();
        let readings = readings.clone();
        move || ConvergecastSum::new(g.clone(), 0, readings.clone())
    };

    // Theorem 1.2 compiler: one-time-pad the whole execution.
    let report = Scenario::on(g.clone())
        .payload(payload.clone())
        .adversary(
            AdversaryRole::Eavesdropper,
            RandomMobile::new(f, 3),
            CorruptionBudget::Mobile { f },
        )
        .seed(3)
        .compiled_with(CompilerDef::StaticToMobile {
            t: 6,
            words: 2,
            seed: 42,
        })
        .run()
        .unwrap();
    println!(
        "static→mobile compiler: total = {} (true total {}), {} network rounds",
        report.outputs[0][0],
        report.fault_free.as_ref().unwrap()[0][0],
        report.network_rounds
    );
    assert_eq!(report.agrees_with_fault_free(), Some(true));
    println!(
        "eavesdropper saw {} edge-rounds; plaintext reading observed = {}",
        report.view.len(),
        report.view_contains_any(&readings)
    );

    // Theorem 1.3 compiler additionally hides which edges carry real traffic.
    let report2 = Scenario::on(g)
        .payload(payload)
        .adversary(
            AdversaryRole::Eavesdropper,
            RandomMobile::new(f, 5),
            CorruptionBudget::Mobile { f },
        )
        .seed(5)
        .compiled_with(CompilerDef::CongestionSensitive {
            f,
            words: 2,
            seed: 9,
        })
        .run()
        .unwrap();
    println!(
        "congestion-sensitive compiler: total = {}, {} network rounds ({:.1}x overhead)",
        report2.outputs[0][0],
        report2.network_rounds,
        report2.overhead()
    );
    assert_eq!(report2.agrees_with_fault_free(), Some(true));
    assert!(!report2.view_contains_any(&readings));
}
