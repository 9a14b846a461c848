//! Contract tests for the unified `Scenario` execution API: build-time
//! validation of role/compiler pairings, byte-for-byte parity of the
//! `Uncompiled`/`FaultFree` compilers with the low-level entry points, and
//! the graph × adversary × compiler grid swept by a one-thread `Campaign`.

use mobile_congest::graphs::{generators, GraphDef};
use mobile_congest::harness::{Campaign, CampaignSpec, GridSpec, PayloadDef};
use mobile_congest::payloads::{ConvergecastSum, FloodBroadcast, LeaderElection};
use mobile_congest::scenario::{
    matrix, CliqueAdapter, Compiler, CompilerDef, CompilerKind, CompilerNotes,
    CongestionSensitiveAdapter, CycleCoverAdapter, ExpanderAdapter, FaultFree, RewindAdapter,
    Scenario, ScenarioError, StaticToMobileAdapter, TreePackingAdapter, Uncompiled,
};
use mobile_congest::sim::adversary::{
    AdversaryRole, CorruptionBudget, CorruptionMode, RandomMobile,
};
use mobile_congest::sim::network::Network;
use mobile_congest::sim::{run_fault_free, run_on_network};

#[test]
fn builder_rejects_eavesdropper_with_resilient_compilers() {
    let g = generators::complete(10);
    for (name, compiler) in [
        (
            "clique",
            Box::new(CliqueAdapter::new(1, 3)) as Box<dyn Compiler>,
        ),
        ("tree-packing", Box::new(TreePackingAdapter::new(1, 3))),
        ("cycle-cover", Box::new(CycleCoverAdapter::new(1))),
        ("rewind", Box::new(RewindAdapter::new(1, 3))),
    ] {
        let gg = g.clone();
        let err = Scenario::on(g.clone())
            .payload(move || LeaderElection::new(gg.clone()))
            .adversary(
                AdversaryRole::Eavesdropper,
                RandomMobile::new(1, 5),
                CorruptionBudget::Mobile { f: 1 },
            )
            .compiled_with_boxed(compiler)
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::RoleMismatch {
                    role: AdversaryRole::Eavesdropper,
                    ..
                }
            ),
            "{name}: expected RoleMismatch, got {err:?}"
        );
    }
}

#[test]
fn builder_rejects_byzantine_with_secure_compilers() {
    let g = generators::complete(10);
    for compiler in [
        Box::new(StaticToMobileAdapter::new(4, 2, 1)) as Box<dyn Compiler>,
        Box::new(CongestionSensitiveAdapter::new(1, 2, 1)),
    ] {
        let kind = compiler.kind();
        assert_eq!(kind, CompilerKind::Secure);
        let gg = g.clone();
        let err = Scenario::on(g.clone())
            .payload(move || LeaderElection::new(gg.clone()))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(1, 5),
                CorruptionBudget::Mobile { f: 1 },
            )
            .compiled_with_boxed(compiler)
            .run()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::RoleMismatch { .. }));
    }
}

#[test]
fn builder_rejects_structurally_impossible_graphs() {
    // Clique compiler off the clique.
    let gg = generators::cycle(8);
    let err = Scenario::on(gg.clone())
        .payload(move || LeaderElection::new(gg.clone()))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(1, 5),
            CorruptionBudget::Mobile { f: 1 },
        )
        .compiled_with(CliqueAdapter::new(1, 3))
        .run()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::UnsupportedGraph { .. }));

    // Cycle-cover compiler on a graph below (2f+1)-edge-connectivity.
    let gg = generators::cycle(8);
    let err = Scenario::on(gg.clone())
        .payload(move || LeaderElection::new(gg.clone()))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(1, 5),
            CorruptionBudget::Mobile { f: 1 },
        )
        .compiled_with(CycleCoverAdapter::new(1))
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::InsufficientConnectivity {
            compiler: CycleCoverAdapter::new(1).name(),
            needed: 3,
            found: 2,
        }
    );
}

#[test]
fn missing_payload_is_rejected_before_any_round_runs() {
    let err = Scenario::on(generators::complete(6))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(1, 1),
            CorruptionBudget::Mobile { f: 1 },
        )
        .run()
        .unwrap_err();
    assert_eq!(err, ScenarioError::MissingPayload);
}

/// Exhaustive pairing contract: for *every* compiler × adversary-role
/// combination, `ScenarioBuilder::build` accepts iff
/// `CompilerKind::supports(role)` says so, on a graph (K12) that passes every
/// compiler's structural validation — so the only reject reason in play is
/// the role, and it is always the typed `RoleMismatch`.
#[test]
fn every_compiler_kind_role_pairing_matches_builder_behavior() {
    let g = generators::complete(12);
    type MakeCompiler = Box<dyn Fn() -> Box<dyn Compiler>>;
    let all_compilers: Vec<MakeCompiler> = vec![
        Box::new(|| Box::new(Uncompiled)),
        Box::new(|| Box::new(FaultFree)),
        Box::new(|| Box::new(CliqueAdapter::new(1, 3))),
        Box::new(|| Box::new(TreePackingAdapter::new(1, 3))),
        Box::new(|| Box::new(CycleCoverAdapter::new(1))),
        Box::new(|| Box::new(ExpanderAdapter::new(1, 2, 6, 3))),
        Box::new(|| Box::new(RewindAdapter::new(1, 3))),
        Box::new(|| Box::new(StaticToMobileAdapter::new(4, 2, 3))),
        Box::new(|| Box::new(CongestionSensitiveAdapter::new(1, 2, 3))),
    ];
    // Every CompilerKind is represented, so the table below really is the
    // full supports() matrix.
    for kind in [
        CompilerKind::Baseline,
        CompilerKind::Reference,
        CompilerKind::Resilient,
        CompilerKind::RateResilient,
        CompilerKind::Secure,
    ] {
        assert!(
            all_compilers.iter().any(|make| make().kind() == kind),
            "no compiler of kind {kind:?} in the exhaustive pairing test"
        );
    }
    for make in &all_compilers {
        for role in [AdversaryRole::Byzantine, AdversaryRole::Eavesdropper] {
            let compiler = make();
            let name = compiler.name();
            let kind = compiler.kind();
            let gg = g.clone();
            let built = Scenario::on(g.clone())
                .payload(move || LeaderElection::new(gg.clone()))
                .adversary(
                    role,
                    RandomMobile::new(1, 5),
                    CorruptionBudget::Mobile { f: 1 },
                )
                .compiled_with_boxed(compiler)
                .build();
            if kind.supports(role) {
                assert!(
                    built.is_ok(),
                    "{name} ({kind:?}) should accept a {role:?} adversary"
                );
            } else {
                assert!(
                    matches!(
                        built.as_ref().err(),
                        Some(ScenarioError::RoleMismatch { .. })
                    ),
                    "{name} ({kind:?}) should reject a {role:?} adversary with RoleMismatch"
                );
            }
        }
    }
}

/// Typed `CompilerNotes` reach the report from a direct scenario run: the
/// resilient compiler reports its correction verdict, the secrecy compiler
/// its key-exchange phase split.
#[test]
fn compiler_notes_reach_the_run_report() {
    let g = generators::complete(12);
    let gg = g.clone();
    let resilient = Scenario::on(g.clone())
        .payload(move || FloodBroadcast::new(gg.clone(), 0, 99))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(1, 7),
            CorruptionBudget::Mobile { f: 1 },
        )
        .seed(7)
        .compiled_with(CliqueAdapter::new(1, 3))
        .run()
        .unwrap();
    assert_eq!(resilient.notes.fully_corrected(), Some(true));
    assert!(matches!(
        resilient.notes,
        CompilerNotes::Resilient {
            fully_corrected: true,
            ..
        }
    ));
    assert!(resilient.table_row().contains("notes=corrected:yes"));

    let gg = g.clone();
    let secure = Scenario::on(g)
        .payload(move || FloodBroadcast::new(gg.clone(), 0, 99))
        .adversary(
            AdversaryRole::Eavesdropper,
            RandomMobile::new(1, 7),
            CorruptionBudget::Mobile { f: 1 },
        )
        .seed(7)
        .compiled_with(StaticToMobileAdapter::new(4, 2, 3))
        .run()
        .unwrap();
    let key_rounds = secure.notes.key_rounds().expect("secure notes present");
    assert!(key_rounds > 0);
    match secure.notes {
        CompilerNotes::Secure {
            key_rounds: kr,
            simulation_rounds,
        } => {
            assert_eq!(kr, key_rounds);
            assert_eq!(simulation_rounds, secure.payload_rounds);
            assert_eq!(secure.network_rounds, kr + simulation_rounds);
        }
        ref other => panic!("expected secure notes, got {other:?}"),
    }

    // Baselines stay silent and the table shows a placeholder.
    let uncompiled_header = mobile_congest::scenario::RunReport::table_header();
    assert!(uncompiled_header.contains("notes"));
}

/// `Uncompiled` through the pipeline must reproduce `run_on_network` on an
/// identically configured network byte for byte — same outputs, same round
/// and corruption counters.
#[test]
fn uncompiled_scenario_reproduces_run_on_network_byte_for_byte() {
    let g = generators::complete(10);
    let f = 2;
    let seed = 11;

    let mut reference_net = Network::new(
        g.clone(),
        AdversaryRole::Byzantine,
        Box::new(RandomMobile::new(f, seed).with_mode(CorruptionMode::FlipLowBit)),
        CorruptionBudget::Mobile { f },
        seed,
    );
    let reference = run_on_network(
        &mut FloodBroadcast::new(g.clone(), 0, 777),
        &mut reference_net,
    );

    let gg = g.clone();
    let report = Scenario::on(g.clone())
        .payload(move || FloodBroadcast::new(gg.clone(), 0, 777))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(f, seed).with_mode(CorruptionMode::FlipLowBit),
            CorruptionBudget::Mobile { f },
        )
        .seed(seed)
        .compiled_with(Uncompiled)
        .run()
        .unwrap();

    assert_eq!(report.outputs, reference);
    assert_eq!(report.network_rounds, reference_net.round());
    assert_eq!(report.metrics, *reference_net.metrics());
}

/// `FaultFree` through the pipeline must reproduce `run_fault_free` byte for
/// byte and consume zero network rounds.
#[test]
fn fault_free_scenario_reproduces_run_fault_free_byte_for_byte() {
    let g = generators::grid(3, 4);
    let inputs: Vec<u64> = (0..12).map(|v| 100 + v).collect();
    let reference = run_fault_free(&mut ConvergecastSum::new(g.clone(), 0, inputs.clone()));

    let gg = g.clone();
    let report = Scenario::on(g.clone())
        .payload(move || ConvergecastSum::new(gg.clone(), 0, inputs.clone()))
        .compiled_with(FaultFree)
        .run()
        .unwrap();

    assert_eq!(report.outputs, reference);
    assert_eq!(report.fault_free, Some(reference));
    assert_eq!(report.network_rounds, 0);
    assert_eq!(report.agrees_with_fault_free(), Some(true));
}

/// The acceptance-grade sweep: 3 graph families × 4 adversary strategies ×
/// 6 compilers through a one-thread `Campaign`.  Structurally
/// impossible cells must be skipped with typed errors; every executed
/// protected cell must agree with the fault-free reference.
#[test]
fn matrix_sweep_graphs_by_adversaries_by_compilers() {
    let spec = CampaignSpec {
        seed: 2024,
        repetitions: 1,
        grid: GridSpec {
            graphs: vec![
                GraphDef::complete(12),
                GraphDef::circulant(18, 4),
                GraphDef::circulant(10, 2),
            ],
            adversaries: vec![
                matrix::AdversaryDef::RandomMobile { f: 1 },
                matrix::AdversaryDef::SweepMobile { f: 1 },
                matrix::AdversaryDef::GreedyHeaviest {
                    f: 1,
                    mode: CorruptionMode::FlipLowBit,
                },
                matrix::AdversaryDef::Eavesdropper { f: 2 },
            ],
            compilers: vec![
                CompilerDef::FaultFree,
                CompilerDef::Uncompiled,
                CompilerDef::Clique { f: 1, seed: 5 },
                CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 5,
                    packing: Default::default(),
                },
                CompilerDef::CycleCover { f: 1 },
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
            ],
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 4242,
            },
        },
    };

    let report = Campaign::from_spec(&spec).unwrap().threads(1).run();

    assert_eq!(report.cells.len(), 3 * 4 * 6, "full grid must be covered");

    // Structural skips: resilient compilers under the eavesdropper, secure
    // compiler under the three byzantine strategies, clique compiler off the
    // clique, and packings that do not fit the sparse circulant.
    assert!(report.skipped_count() > 0, "expected typed skips");
    for cell in &report.cells {
        if cell.skipped() {
            assert!(
                matches!(
                    cell.outcome,
                    Err(ScenarioError::RoleMismatch { .. })
                        | Err(ScenarioError::UnsupportedGraph { .. })
                        | Err(ScenarioError::InsufficientConnectivity { .. })
                ),
                "unexpected skip reason in {}/{}/{}",
                cell.graph,
                cell.adversary,
                cell.compiler
            );
        }
    }

    // Representative structural skips exist.
    assert!(report.cells.iter().any(|c| c.compiler.starts_with("clique")
        && c.graph != "K12"
        && matches!(c.outcome, Err(ScenarioError::UnsupportedGraph { .. }))));
    assert!(report.cells.iter().any(|c| c.adversary == "eavesdropper"
        && matches!(c.outcome, Err(ScenarioError::RoleMismatch { .. }))));

    // Every executed protected cell agrees with the fault-free reference.
    for cell in report.executed() {
        let outcome = cell.outcome.as_ref().unwrap_or_else(|e| {
            panic!(
                "{}/{}/{} failed: {e}",
                cell.graph, cell.adversary, cell.compiler
            )
        });
        if cell.compiler != "uncompiled" {
            assert_eq!(
                outcome.agrees_with_fault_free(),
                Some(true),
                "{}/{}/{} diverged",
                cell.graph,
                cell.adversary,
                cell.compiler
            );
        }
    }
    assert!(report.all_protected_cells_agree());

    // The formatted table mentions every graph family.
    let table = report.to_table();
    for def in &spec.grid.graphs {
        assert!(table.contains(&def.display_name()));
    }
}

/// The rewind compiler's per-arc majority used to break three-way ties by
/// `HashMap` iteration order, so one cell gave different trajectories run to
/// run.  Seed 3 puts such a tie into the first global rounds of this cell
/// (one edge corrupted in two of the three repetition rounds): ten runs in
/// one process must give ten identical reports.
#[test]
fn rewind_cell_is_deterministic_run_to_run() {
    use mobile_congest::graphs::Graph;
    use mobile_congest::obs::TraceSpec;
    use mobile_congest::scenario::BoxedAlgorithm;

    let graph = GraphDef::expander(32, 8, 2024).build().unwrap();
    let adversary = matrix::AdversaryDef::RandomMobile { f: 1 };
    let compiler = CompilerDef::Rewind { f: 1, seed: 5 };
    let payload = |g: &Graph| Box::new(FloodBroadcast::new(g.clone(), 0, 4242)) as BoxedAlgorithm;
    let fingerprints: Vec<String> = (0..10)
        .map(|_| {
            let report = matrix::run_cell(
                &graph,
                &adversary,
                compiler.build(),
                payload,
                3,
                TraceSpec::off(),
                None,
            )
            .expect("the rewind cell validates and completes");
            format!("{report:?}")
        })
        .collect();
    assert!(
        fingerprints.iter().all(|fp| fp == &fingerprints[0]),
        "the same rewind cell produced different reports in one process"
    );
}
