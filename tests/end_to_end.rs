//! Cross-crate integration tests, all driven through the unified `Scenario`
//! pipeline: every compiler × several payloads × several graph families ×
//! several adversary strategies, plus the security coupling harness and
//! negative controls (baselines that must fail).

use mobile_congest::compilers::secure::mobile_secure_unicast;
use mobile_congest::graphs::generators;
use mobile_congest::payloads::{
    BfsTreeAlgorithm, ConvergecastSum, FloodBroadcast, LeaderElection, RandomizedColoring,
    TokenDissemination,
};
use mobile_congest::scenario::{CompilerDef, Scenario, Uncompiled};
use mobile_congest::sim::adversary::{
    AdversaryRole, AdversaryStrategy, BurstAdversary, CorruptionBudget, CorruptionMode,
    GreedyHeaviest, RandomMobile, ScheduledEdges, SweepMobile,
};

type StrategyFactory = Box<dyn Fn(u64) -> Box<dyn AdversaryStrategy>>;

#[test]
fn clique_compiler_across_payloads_and_adversaries() {
    let n = 16;
    let g = generators::complete(n);
    let f = 2;
    let strategies: Vec<(&str, StrategyFactory)> = vec![
        ("random", Box::new(|s| Box::new(RandomMobile::new(2, s)))),
        ("sweep", Box::new(|_| Box::new(SweepMobile::new(1)))),
        (
            "greedy",
            Box::new(|_| Box::new(GreedyHeaviest::new(2).with_mode(CorruptionMode::FlipLowBit))),
        ),
    ];
    for (name, make) in &strategies {
        // Broadcast payload.
        let gg = g.clone();
        let report = Scenario::on(g.clone())
            .payload(move || FloodBroadcast::new(gg.clone(), 3, 777))
            .adversary_boxed(
                AdversaryRole::Byzantine,
                make(7),
                CorruptionBudget::Mobile { f },
            )
            .seed(7)
            .compiled_with(CompilerDef::Clique { f, seed: 42 })
            .run()
            .unwrap();
        assert_eq!(
            report.agrees_with_fault_free(),
            Some(true),
            "broadcast failed under {name}"
        );

        // Leader election payload.
        let gg = g.clone();
        let report = Scenario::on(g.clone())
            .payload(move || LeaderElection::new(gg.clone()))
            .adversary_boxed(
                AdversaryRole::Byzantine,
                make(9),
                CorruptionBudget::Mobile { f },
            )
            .seed(9)
            .compiled_with(CompilerDef::Clique { f, seed: 42 })
            .run()
            .unwrap();
        assert_eq!(
            report.agrees_with_fault_free(),
            Some(true),
            "leader election failed under {name}"
        );
    }
}

#[test]
fn clique_compiler_protects_aggregation_and_coloring() {
    let g = generators::complete(14);
    let f = 1;

    let inputs: Vec<u64> = (0..14).map(|v| v * 11 + 3).collect();
    let gg = g.clone();
    let report = Scenario::on(g.clone())
        .payload(move || ConvergecastSum::new(gg.clone(), 0, inputs.clone()))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(f, 3),
            CorruptionBudget::Mobile { f },
        )
        .seed(3)
        .compiled_with(CompilerDef::Clique { f, seed: 5 })
        .run()
        .unwrap();
    assert_eq!(report.agrees_with_fault_free(), Some(true));

    // Randomized colouring: the compiled output must be a proper colouring.
    let gg = g.clone();
    let report = Scenario::on(g.clone())
        .payload(move || RandomizedColoring::new(gg.clone(), 20, 99))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(f, 4),
            CorruptionBudget::Mobile { f },
        )
        .seed(4)
        .compiled_with(CompilerDef::Clique { f, seed: 5 })
        .check_against_fault_free(false)
        .run()
        .unwrap();
    let reference = RandomizedColoring::new(g.clone(), 20, 99);
    assert!(
        reference.is_proper(&report.outputs),
        "compiled colouring is improper"
    );
    assert!(RandomizedColoring::decided_fraction(&report.outputs) > 0.9);
}

#[test]
fn general_graph_compiler_on_circulants() {
    // Graphs must offer enough edge connectivity for a packing of k = Ω(f·η)
    // trees (the hypercube's connectivity 4 is below the envelope for f = 1
    // with this crate's scheduler constants — see EXPERIMENTS.md).
    for (g, k) in [
        (generators::circulant(18, 4), 9usize),
        (generators::circulant(16, 3), 8),
    ] {
        let f = 1;
        let gg = g.clone();
        let report = Scenario::on(g.clone())
            .payload(move || BfsTreeAlgorithm::new(gg.clone(), 0))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(f, 8),
                CorruptionBudget::Mobile { f },
            )
            .seed(8)
            .compiled_with(CompilerDef::TreePacking {
                f,
                trees: Some(k),
                seed: 13,
                packing: Default::default(),
            })
            .run()
            .unwrap();
        // BFS parents may legitimately differ; depths must match.
        let expected = report.fault_free.as_ref().unwrap();
        for v in g.nodes() {
            assert_eq!(
                report.outputs[v][1], expected[v][1],
                "depth mismatch at node {v}"
            );
        }
    }
}

#[test]
fn cycle_cover_compiler_small_f() {
    let g = generators::circulant(10, 2);
    let gg = g.clone();
    let report = Scenario::on(g)
        .payload(move || LeaderElection::new(gg.clone()))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(1, 6).with_mode(CorruptionMode::Constant(2)),
            CorruptionBudget::Mobile { f: 1 },
        )
        .seed(6)
        .compiled_with(CompilerDef::CycleCover { f: 1 })
        .run()
        .unwrap();
    assert_eq!(report.agrees_with_fault_free(), Some(true));
    assert!(report.network_rounds > report.payload_rounds);
}

#[test]
fn rewind_compiler_under_burst_and_uncompiled_failure_control() {
    let g = generators::complete(12);

    // Negative control: an uncompiled run under a constant-value burst
    // adversary with an unconstrained per-round budget is corrupted with
    // overwhelming probability (every round, half the edges lie).
    let gg = g.clone();
    let baseline = Scenario::on(g.clone())
        .payload(move || LeaderElection::new(gg.clone()))
        .adversary(
            AdversaryRole::Byzantine,
            GreedyHeaviest::new(30).with_mode(CorruptionMode::Constant(1)),
            CorruptionBudget::Mobile { f: 30 },
        )
        .seed(1)
        .compiled_with(Uncompiled)
        .run()
        .unwrap();
    assert_eq!(
        baseline.agrees_with_fault_free(),
        Some(false),
        "negative control unexpectedly survived"
    );

    // The rewind compiler under a bursty round-error-rate adversary succeeds.
    let gg = g.clone();
    let report = Scenario::on(g.clone())
        .payload(move || LeaderElection::new(gg.clone()))
        .adversary(
            AdversaryRole::Byzantine,
            BurstAdversary::new(30, 5, 10, 3),
            CorruptionBudget::RoundErrorRate { total: 120 },
        )
        .seed(3)
        .compiled_with(CompilerDef::Rewind { f: 1, seed: 17 })
        .run()
        .unwrap();
    assert_eq!(report.agrees_with_fault_free(), Some(true));
}

#[test]
fn secure_compilers_preserve_outputs_and_hide_inputs() {
    let g = generators::grid(3, 4);
    let readings: Vec<u64> = (0..12).map(|v| 1000 + v).collect();

    // Theorem 1.2 compiler.
    let gg = g.clone();
    let rr = readings.clone();
    let report = Scenario::on(g.clone())
        .payload(move || ConvergecastSum::new(gg.clone(), 0, rr.clone()))
        .adversary(
            AdversaryRole::Eavesdropper,
            RandomMobile::new(2, 5),
            CorruptionBudget::Mobile { f: 2 },
        )
        .seed(5)
        .compiled_with(CompilerDef::StaticToMobile {
            t: 5,
            words: 2,
            seed: 77,
        })
        .run()
        .unwrap();
    assert_eq!(report.agrees_with_fault_free(), Some(true));
    // No plaintext reading may appear verbatim in the adversary's view during
    // the simulation phase (the pads are 64-bit, collision probability ~2^-64).
    assert!(
        !report.view_contains_any(&readings),
        "reading leaked in the clear"
    );

    // Theorem 1.3 compiler on the clique (high connectivity) with token payload.
    let kg = generators::complete(10);
    let tokens: Vec<u64> = (0..10).map(|v| 3_000 + v).collect();
    let kgg = kg.clone();
    let report = Scenario::on(kg)
        .payload(move || TokenDissemination::new(kgg.clone(), tokens.clone(), 10))
        .adversary(
            AdversaryRole::Eavesdropper,
            RandomMobile::new(1, 9),
            CorruptionBudget::Mobile { f: 1 },
        )
        .seed(9)
        .compiled_with(CompilerDef::CongestionSensitive {
            f: 1,
            words: 10,
            seed: 23,
        })
        .run()
        .unwrap();
    assert_eq!(report.agrees_with_fault_free(), Some(true));
}

/// Perfect security, operationally: couple the adversary schedule and node
/// randomness across two executions that differ *only* in the secret; the
/// adversary's views must be identical whenever it never observes an edge
/// during the key-establishment phase (pads hide the payload completely).
#[test]
fn coupled_views_are_input_independent_for_unicast() {
    let g = generators::cycle(8);
    // Observe a fixed edge only after the single pad-exchange round.
    let schedule: Vec<Vec<usize>> = std::iter::once(vec![])
        .chain(std::iter::repeat_n(vec![2usize], 20))
        .collect();
    let run = |secret: u64| {
        let mut net = Scenario::on(g.clone())
            .adversary(
                AdversaryRole::Eavesdropper,
                ScheduledEdges::new(schedule.clone()),
                CorruptionBudget::Mobile { f: 1 },
            )
            .seed(1)
            .network()
            .unwrap();
        let rep = mobile_secure_unicast(&mut net, 0, 4, secret, 99);
        assert_eq!(rep.recovered[0], Some(secret));
        net.view_log().canonical()
    };
    let view_a = run(0x1111_1111);
    let view_b = run(0x9999_9999);
    assert_eq!(
        view_a, view_b,
        "the eavesdropper's view must not depend on the secret"
    );
}

#[test]
fn uncompiled_baseline_is_broken_by_a_single_mobile_edge_eventually() {
    // A 1-mobile adversary that substitutes plausible values corrupts an
    // uncompiled flooding broadcast on a cycle for at least some corruption
    // schedule; this is the "resilience is impossible without redundancy"
    // control for sparse graphs.
    let g = generators::cycle(8);
    let mut broken_any = false;
    for seed in 0..5 {
        let gg = g.clone();
        let report = Scenario::on(g.clone())
            .payload(move || FloodBroadcast::new(gg.clone(), 0, 777))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(1, seed).with_mode(CorruptionMode::Constant(123)),
                CorruptionBudget::Mobile { f: 1 },
            )
            .seed(seed)
            .compiled_with(Uncompiled)
            .run()
            .unwrap();
        if report.agrees_with_fault_free() == Some(false) {
            broken_any = true;
        }
    }
    assert!(
        broken_any,
        "the unprotected baseline should break for some schedule"
    );
}

#[test]
fn compiled_runs_cost_more_rounds_but_bounded_overhead() {
    let g = generators::complete(16);
    let f = 2;
    let gg = g.clone();
    let report = Scenario::on(g.clone())
        .payload(move || LeaderElection::new(gg.clone()))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(f, 11),
            CorruptionBudget::Mobile { f },
        )
        .seed(11)
        .compiled_with(CompilerDef::Clique { f, seed: 3 })
        .run()
        .unwrap();
    assert_eq!(report.agrees_with_fault_free(), Some(true));
    assert!(report.network_rounds > report.payload_rounds);
    // Overhead is polylogarithmic-ish in simulation terms: well below the naive
    // "repeat everything n times" blow-up.
    assert!(
        report.network_rounds < 5000 * report.payload_rounds,
        "overhead unexpectedly large: {}",
        report.network_rounds
    );
}
