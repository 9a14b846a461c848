//! Contract tests for the unified `Scenario` execution API: build-time
//! validation of role/compiler pairings, byte-for-byte parity of the
//! `Uncompiled`/`FaultFree` compilers with the low-level entry points, and
//! the graph × adversary × compiler grid swept by a one-thread `Campaign`.

use mobile_congest::graphs::{generators, GraphDef};
use mobile_congest::harness::{Campaign, CampaignSpec, GridSpec, PayloadDef};
use mobile_congest::payloads::{ConvergecastSum, FloodBroadcast, LeaderElection};
use mobile_congest::scenario::{
    matrix, Compiler, CompilerDef, CompilerKind, CompilerNotes, FaultFree, Scenario, ScenarioError,
    Uncompiled,
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
            Box::new(CompilerDef::Clique { f: 1, seed: 3 }) as Box<dyn Compiler>,
        ),
        (
            "tree-packing",
            Box::new(CompilerDef::TreePacking {
                f: 1,
                trees: None,
                seed: 3,
                packing: Default::default(),
            }),
        ),
        ("cycle-cover", Box::new(CompilerDef::CycleCover { f: 1 })),
        ("rewind", Box::new(CompilerDef::Rewind { f: 1, seed: 3 })),
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
        Box::new(CompilerDef::StaticToMobile {
            t: 4,
            words: 2,
            seed: 1,
        }) as Box<dyn Compiler>,
        Box::new(CompilerDef::CongestionSensitive {
            f: 1,
            words: 2,
            seed: 1,
        }),
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
        .compiled_with(CompilerDef::Clique { f: 1, seed: 3 })
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
        .compiled_with(CompilerDef::CycleCover { f: 1 })
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::InsufficientConnectivity {
            compiler: CompilerDef::CycleCover { f: 1 }.name(),
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
        Box::new(|| Box::new(CompilerDef::Clique { f: 1, seed: 3 })),
        Box::new(|| {
            Box::new(CompilerDef::TreePacking {
                f: 1,
                trees: None,
                seed: 3,
                packing: Default::default(),
            })
        }),
        Box::new(|| Box::new(CompilerDef::CycleCover { f: 1 })),
        Box::new(|| {
            Box::new(CompilerDef::Expander {
                f: 1,
                k: 2,
                bfs_rounds: 6,
                seed: 3,
            })
        }),
        Box::new(|| Box::new(CompilerDef::Rewind { f: 1, seed: 3 })),
        Box::new(|| {
            Box::new(CompilerDef::StaticToMobile {
                t: 4,
                words: 2,
                seed: 3,
            })
        }),
        Box::new(|| {
            Box::new(CompilerDef::CongestionSensitive {
                f: 1,
                words: 2,
                seed: 3,
            })
        }),
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
        .compiled_with(CompilerDef::Clique { f: 1, seed: 3 })
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
        .compiled_with(CompilerDef::StaticToMobile {
            t: 4,
            words: 2,
            seed: 3,
        })
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

/// Every `CompilerDef` variant, pinned end to end: its name and kind, and an
/// FNV-1a of the `Debug` of its cells — verdicts, outputs, metrics, notes —
/// on a clique, a sparse circulant, a cycle and two disjoint cycles, under a
/// byzantine and an eavesdropping adversary.  The defs are written as spec
/// JSON; the literals were captured before the per-compiler adapter types
/// were folded into the def, so the fold is checked to change no byte a def
/// produces.
#[test]
fn every_compiler_def_is_pinned_by_name_kind_and_outcome() {
    use mobile_congest::graphs::Graph;
    use mobile_congest::harness::json::{self, fnv1a_hex};
    use mobile_congest::harness::spec::compiler_from_json;
    use mobile_congest::obs::{TraceSpec, Tracer};
    use mobile_congest::scenario::BoxedAlgorithm;

    let two_cycles: Vec<(usize, usize)> = (0..5)
        .flat_map(|i| [(i, (i + 1) % 5), (5 + i, 5 + (i + 1) % 5)])
        .collect();
    let graphs = [
        generators::complete(8),
        generators::circulant(12, 3),
        generators::cycle(6),
        Graph::from_edges(10, &two_cycles),
    ];
    let adversaries = [
        matrix::AdversaryDef::RandomMobile { f: 1 },
        matrix::AdversaryDef::Eavesdropper { f: 1 },
    ];
    let pins = [
        (
            r#"{"id":"uncompiled"}"#,
            "uncompiled Baseline d06ec7f5c8c905b3",
        ),
        (r#"{"id":"async"}"#, "async(sync) Baseline f55ea05add5b0749"),
        (
            r#"{"id":"fault-free"}"#,
            "fault-free Reference c5b6a27f73c05fdd",
        ),
        (
            r#"{"id":"clique","f":1,"seed":5}"#,
            "clique(f=1) Resilient 390c2a1806c14fc5",
        ),
        (
            r#"{"id":"tree-packing","f":1,"seed":5}"#,
            "tree-packing(f=1,k=9,v2) Resilient d6047a2b9614ae75",
        ),
        (
            r#"{"id":"tree-packing","f":1,"trees":9,"seed":5,"packing":"v1"}"#,
            "tree-packing(f=1,k=9,v1) Resilient 10dc2e40e4e46b2d",
        ),
        (
            r#"{"id":"tree-packing","f":1,"trees":0,"seed":5}"#,
            "tree-packing(f=1,k=0,v2) Resilient 7c3a09d9aad0b0cd",
        ),
        (
            r#"{"id":"cycle-cover","f":1}"#,
            "cycle-cover(f=1) Resilient a15ea4c72900336e",
        ),
        (
            r#"{"id":"expander","f":1,"k":1,"bfs_rounds":4,"seed":5}"#,
            "expander(f=1,k=1) Resilient 56fa5985820aaac2",
        ),
        (
            r#"{"id":"rewind","f":1,"seed":5}"#,
            "rewind(f=1) RateResilient 7dd39151e84ef110",
        ),
        (
            r#"{"id":"static-to-mobile","t":4,"words":2,"seed":5}"#,
            "static-to-mobile(t=4) Secure 423951ce05615fc9",
        ),
        (
            r#"{"id":"congestion-sensitive","f":1,"words":2,"seed":5}"#,
            "congestion-sensitive(f=1) Secure c83d88d5b766df37",
        ),
    ];
    // The flood needs a connected graph; the disjoint cycles exchange ids.
    let payload = |g: &Graph| -> BoxedAlgorithm {
        if mobile_congest::graphs::traversal::is_connected(g) {
            Box::new(FloodBroadcast::new(g.clone(), 0, 4242))
        } else {
            Box::new(mobile_congest::scenario::doctest_payload(g.clone()))
        }
    };
    for (spec, pin) in pins {
        let def = compiler_from_json(&json::parse(spec).unwrap()).unwrap();
        let mut cells = String::new();
        for graph in &graphs {
            let verdict = def
                .prepare(graph, &mut Tracer::disabled())
                .map(std::sync::Arc::new);
            cells.push_str(&format!("{:?}\n", verdict.as_ref().map(|_| ())));
            for adversary in &adversaries {
                let outcome = matrix::run_cell(
                    graph,
                    adversary,
                    def.build(),
                    payload,
                    7,
                    TraceSpec::off(),
                    Some(verdict.clone()),
                );
                cells.push_str(&format!("{outcome:?}\n"));
            }
        }
        let found = format!(
            "{} {:?} {}",
            def.name(),
            def.kind(),
            fnv1a_hex(cells.bytes())
        );
        assert_eq!(found, pin, "{spec}");
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
