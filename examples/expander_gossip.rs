//! Leader election on a random regular expander with the Theorem 1.7 compiler:
//! the weak tree packing is computed while the mobile adversary is already
//! attacking, then every round is corrected through it.
//!
//! Run with `cargo run --example expander_gossip`.

use mobile_congest::graphs::connectivity::sweep_conductance;
use mobile_congest::graphs::generators;
use mobile_congest::payloads::LeaderElection;
use mobile_congest::scenario::{CompilerDef, Scenario};
use mobile_congest::sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let n = 48;
    let d = 24;
    let f = 1;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = generators::random_regular(&mut rng, n, d);
    let phi = sweep_conductance(&g, 200).unwrap_or(0.0);
    println!("expander: n = {n}, degree ≈ {d}, sweep conductance ≈ {phi:.3}");

    let gg = g.clone();
    let report = Scenario::on(g)
        .payload(move || LeaderElection::new(gg.clone()))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(f, 17),
            CorruptionBudget::Mobile { f },
        )
        .seed(17)
        .compiled_with(CompilerDef::Expander {
            f,
            k: 6,
            bfs_rounds: 6,
            seed: 23,
        })
        .run()
        .unwrap();
    println!(
        "compiled leader election: correct = {:?}, network rounds = {}, overhead = {:.1}x",
        report.agrees_with_fault_free(),
        report.network_rounds,
        report.overhead()
    );
    println!("{report}");
    assert_eq!(report.agrees_with_fault_free(), Some(true));
}
