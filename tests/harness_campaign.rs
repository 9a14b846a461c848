//! Integration tests for the deterministic parallel campaign engine
//! (`mobile_congest::harness`): thread-count determinism, the full
//! 3 × 4 × 6 × 4 acceptance grid, and typed `CompilerNotes` assertions
//! through the whole stack.

use mobile_congest::graphs::{GraphDef, PackingVersion};
use mobile_congest::harness::campaign::summary_table;
use mobile_congest::harness::{Campaign, CampaignSpec, GridSpec, PayloadDef};
use mobile_congest::scenario::matrix::AdversaryDef;
use mobile_congest::scenario::{CompilerDef, CompilerNotes};
use mobile_congest::sim::adversary::CorruptionMode;

/// A grid flooding 4242 from node 0.
fn spec(
    seed: u64,
    repetitions: usize,
    graphs: Vec<GraphDef>,
    adversaries: Vec<AdversaryDef>,
    compilers: Vec<CompilerDef>,
) -> CampaignSpec {
    CampaignSpec {
        seed,
        repetitions,
        grid: GridSpec {
            graphs,
            adversaries,
            compilers,
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 4242,
            },
        },
    }
}

fn graphs() -> Vec<GraphDef> {
    vec![
        GraphDef::complete(12),
        GraphDef::circulant(18, 4),
        GraphDef::circulant(10, 2),
    ]
}

fn adversaries() -> Vec<AdversaryDef> {
    vec![
        AdversaryDef::RandomMobile { f: 1 },
        AdversaryDef::SweepMobile { f: 1 },
        AdversaryDef::GreedyHeaviest {
            f: 1,
            mode: CorruptionMode::FlipLowBit,
        },
        AdversaryDef::Eavesdropper { f: 2 },
    ]
}

const CLIQUE: CompilerDef = CompilerDef::Clique { f: 1, seed: 5 };
const STATIC_TO_MOBILE: CompilerDef = CompilerDef::StaticToMobile {
    t: 4,
    words: 2,
    seed: 5,
};

fn tree_packing(packing: PackingVersion) -> CompilerDef {
    CompilerDef::TreePacking {
        f: 1,
        trees: None,
        seed: 5,
        packing,
    }
}

fn compilers() -> Vec<CompilerDef> {
    vec![
        CompilerDef::FaultFree,
        CompilerDef::Uncompiled,
        CLIQUE,
        tree_packing(PackingVersion::default()),
        CompilerDef::CycleCover { f: 1 },
        STATIC_TO_MOBILE,
    ]
}

/// Same campaign seed, 1 vs 2 vs 8 worker threads: the serialized reports
/// (cell order and contents, including outputs, metrics, view logs and typed
/// notes) must be byte-identical.
#[test]
fn campaign_results_are_byte_identical_across_thread_counts() {
    let spec = spec(
        2024,
        3,
        vec![GraphDef::complete(10), GraphDef::circulant(10, 2)],
        vec![
            AdversaryDef::RandomMobile { f: 1 },
            AdversaryDef::Eavesdropper { f: 1 },
        ],
        vec![CompilerDef::Uncompiled, CLIQUE, STATIC_TO_MOBILE],
    );
    let run_with = |threads: usize| Campaign::from_spec(&spec).unwrap().threads(threads).run();

    let single = run_with(1);
    let double = run_with(2);
    let eight = run_with(8);

    assert_eq!(single.cells.len(), 2 * 2 * 3 * 3);
    assert_eq!(single.fingerprint(), double.fingerprint());
    assert_eq!(single.fingerprint(), eight.fingerprint());
    assert_eq!(single.to_jsonl(), double.to_jsonl());
    assert_eq!(single.to_jsonl(), eight.to_jsonl());
}

/// The acceptance-grade campaign: the 3 × 4 × 6 matrix with 4 repetitions
/// per cell, through the parallel engine, with per-compiler notes aggregated
/// into summaries and exported as JSONL.
#[test]
fn full_grid_campaign_with_repetitions_through_the_parallel_engine() {
    let spec = spec(77, 4, graphs(), adversaries(), compilers());
    let report = Campaign::from_spec(&spec).unwrap().run();

    assert_eq!(report.cells.len(), 3 * 4 * 6 * 4, "full grid × repetitions");
    assert!(report.skipped_count() > 0, "expected typed skips");
    assert!(report.all_protected_cells_agree());

    // Repetitions of one grid cell differ only in their derived seed.
    let seeds: Vec<u64> = report
        .cells
        .iter()
        .filter(|c| {
            c.graph == "K12" && c.adversary == "random-mobile" && c.compiler.starts_with("clique")
        })
        .map(|c| c.seed)
        .collect();
    assert_eq!(seeds.len(), 4);
    assert!(
        seeds.windows(2).all(|w| w[0] != w[1]),
        "per-repetition seeds must differ"
    );

    // The resilient compiler's typed notes survive aggregation: every
    // repetition on the clique under every byzantine adversary ended fully
    // corrected.
    let summaries = report.summaries();
    let clique = summaries
        .iter()
        .find(|s| {
            s.graph == "K12" && s.adversary == "random-mobile" && s.compiler.starts_with("clique")
        })
        .expect("clique group present");
    assert_eq!(clique.executed, 4);
    assert_eq!(clique.disagreements, 0);
    let corrected = clique
        .stat("fully_corrected")
        .expect("resilient notes aggregated");
    assert_eq!(corrected.count, 4);
    assert_eq!(corrected.mean, 1.0, "every repetition fully corrected");
    assert!(clique.stat("mismatches_after").is_some());

    // The secrecy compiler's notes likewise: key rounds are aggregated and
    // positive on every executed eavesdropper cell.
    let secure = summaries
        .iter()
        .find(|s| s.adversary == "eavesdropper" && s.compiler.starts_with("static-to-mobile"))
        .expect("static-to-mobile group present");
    assert!(secure.executed > 0);
    assert!(
        secure
            .stat("key_rounds")
            .expect("secure notes aggregated")
            .min
            > 0.0
    );

    // The JSONL trajectory carries one line per cell plus one per group, and
    // records the typed notes.
    let jsonl = report.to_jsonl();
    assert_eq!(jsonl.lines().count(), report.cells.len() + summaries.len());
    assert!(jsonl.contains("\"notes\":{\"type\":\"resilient\",\"fully_corrected\":1"));
    assert!(jsonl.contains("\"kind\":\"summary\""));
    assert!(jsonl.contains("\"status\":\"skipped\""));
    // Dispersion made it into both exports: the summary JSONL carries
    // stddev/p10/p90 and the table has the `net sd` column.
    assert!(jsonl.contains("\"stddev\":"));
    assert!(jsonl.contains("\"p10\":"));
    assert!(jsonl.contains("\"p90\":"));
    assert!(summary_table(&summaries).contains("net sd"));
    let net = clique.stat("network_rounds").unwrap();
    assert!(net.stddev >= 0.0);
    assert!(net.p10 <= net.p50 && net.p50 <= net.p90 && net.p90 <= net.p99);
}

/// The expanded topology × adversary zoo runs through the full campaign grid
/// with thread-count determinism preserved, A/B-ing the two tree packings on
/// identical cells: every new generator (torus, seeded expander,
/// Watts–Strogatz small world, ring of cliques) and every new adversary
/// (adaptive-heaviest, eclipse) produces executed cells, and the whole
/// report is byte-identical at 1 and 4 workers.
#[test]
fn zoo_campaign_covers_new_generators_and_adversaries_deterministically() {
    use mobile_congest::scenario::matrix::{adversary_zoo_defs, graph_zoo_defs};

    let spec = spec(
        31337,
        2,
        graph_zoo_defs(7),
        adversary_zoo_defs(1),
        vec![
            CompilerDef::Uncompiled,
            tree_packing(PackingVersion::V1Greedy),
            tree_packing(PackingVersion::V2Augmented),
            CompilerDef::CycleCover { f: 1 },
            STATIC_TO_MOBILE,
        ],
    );
    let run_with = |threads: usize| Campaign::from_spec(&spec).unwrap().threads(threads).run();
    let single = run_with(1);
    let parallel = run_with(4);
    assert_eq!(single.cells.len(), 8 * 7 * 5 * 2, "full zoo grid");
    assert_eq!(
        single.fingerprint(),
        parallel.fingerprint(),
        "zoo grid must be thread-count deterministic"
    );
    // The PR-3 frontier, kept pinned as the v1 baseline: the *greedy* tree
    // packing leaves an edge carrying one tree more than the graph requires,
    // and targeted heaviest-edge attacks fail every instance scheduled over
    // that edge at once (random attacks it handles).  Anything else
    // diverging — in particular any v2 cell — is a regression.
    let rogue: Vec<(String, String, String)> = single
        .executed()
        .filter_map(|c| match &c.outcome {
            Ok(r)
                if r.compiler_kind != mobile_congest::scenario::CompilerKind::Baseline
                    && r.agrees_with_fault_free() == Some(false) =>
            {
                Some((c.graph.clone(), c.adversary.clone(), c.compiler.clone()))
            }
            _ => None,
        })
        .collect();
    assert!(
        !rogue.is_empty(),
        "the v1 small-world/tree-packing frontier disappeared — update this test and ROADMAP.md"
    );
    assert!(
        rogue.iter().all(|(g, a, c)| {
            g == "small-world(24,6)" && a.contains("heaviest") && c.ends_with("v1)")
        }),
        "unexpected protected-cell divergences: {rogue:?}"
    );

    // Tree-packing v2 closes the frontier: the very cells where v1 diverges
    // are fully corrected, and across the whole grid no cell that passed
    // `validate_packing_feasible` fails to correct under v2 — validation
    // *predicts* correction strength.
    let v2_cells: Vec<_> = single
        .executed()
        .filter(|c| c.compiler.ends_with("v2)"))
        .collect();
    assert!(!v2_cells.is_empty(), "v2 cells must execute");
    for cell in &v2_cells {
        let report = cell
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("v2 cell {}/{} failed: {e}", cell.graph, cell.adversary));
        assert_eq!(
            report.agrees_with_fault_free(),
            Some(true),
            "v2 diverged on {}/{}",
            cell.graph,
            cell.adversary
        );
        assert_eq!(
            report.notes.fully_corrected(),
            Some(true),
            "v2 left residual mismatches on {}/{}",
            cell.graph,
            cell.adversary
        );
    }
    // The frontier cells specifically: v1 diverges there, v2 corrects, and
    // the quality notes show why — v2 reaches the graph's load floor while
    // v1 sits above it.
    for adversary in ["adaptive-heaviest", "greedy-heaviest"] {
        let frontier = |c: &&mobile_congest::harness::campaign::CampaignCell| {
            c.graph == "small-world(24,6)" && c.adversary == adversary
        };
        assert!(
            rogue
                .iter()
                .any(|(g, a, _)| g == "small-world(24,6)" && a == adversary),
            "v1 baseline divergence under {adversary} disappeared"
        );
        let v2 = v2_cells
            .iter()
            .find(|c| frontier(c))
            .expect("frontier v2 cell executed");
        let report = v2.outcome.as_ref().unwrap();
        let (good, trees, max_load) = report
            .notes
            .packing_quality()
            .expect("resilient notes carry packing quality");
        assert_eq!(good, trees, "every v2 tree is good on the frontier graph");
        assert_eq!(max_load, 3, "v2 reaches the small-world load floor");
    }

    // Every new generator and every new adversary must actually execute
    // cells (not be skipped out of the grid entirely).
    for name in [
        "torus4x5",
        "expander(24,8)",
        "small-world(24,6)",
        "ring-of-cliques(4,5)",
    ] {
        assert!(
            single
                .executed()
                .any(|c| c.graph == name && c.outcome.is_ok()),
            "no executed cell for generator {name}"
        );
    }
    for name in ["adaptive-heaviest", "eclipse(v=0)"] {
        assert!(
            single
                .executed()
                .any(|c| c.adversary == name && c.outcome.is_ok()),
            "no executed cell for adversary {name}"
        );
    }
    // The uncompiled baseline is demonstrably breakable by the new
    // adversaries somewhere in the grid (that's what makes them adversaries).
    assert!(
        single.cells.iter().any(|c| {
            (c.adversary == "adaptive-heaviest" || c.adversary == "eclipse(v=0)")
                && c.compiler == "uncompiled"
                && matches!(&c.outcome, Ok(r) if r.agrees_with_fault_free() == Some(false))
        }),
        "new adversaries should corrupt at least one uncompiled cell"
    );
}

/// The rate compiler's rewind counter flows through the typed notes channel:
/// a bursty adversary forces rewinds, and the campaign can assert on them.
#[test]
fn rewind_notes_are_assertable_through_the_campaign() {
    let mut spec = spec(
        9,
        2,
        vec![GraphDef::complete(14)],
        vec![AdversaryDef::Burst {
            quiet: 40,
            burst: 4,
            per_round: 12,
            total: 200,
        }],
        vec![CompilerDef::Rewind { f: 1, seed: 3 }],
    );
    spec.grid.payload = PayloadDef::LeaderElection;
    let report = Campaign::from_spec(&spec).unwrap().threads(2).run();

    assert_eq!(report.cells.len(), 2);
    for cell in &report.cells {
        let run = cell.outcome.as_ref().expect("rewind cell completed");
        assert_eq!(run.agrees_with_fault_free(), Some(true));
        match run.notes {
            CompilerNotes::Rewind {
                rewinds,
                committed_rounds,
                completed,
                ..
            } => {
                assert!(completed);
                assert_eq!(committed_rounds, run.payload_rounds);
                assert!(rewinds >= 1, "the burst must force at least one rewind");
                assert_eq!(run.notes.rewinds(), Some(rewinds));
            }
            ref other => panic!("expected rewind notes, got {other:?}"),
        }
    }
    let summaries = report.summaries();
    assert!(
        summaries[0]
            .stat("rewinds")
            .expect("rewind notes aggregated")
            .min
            >= 1.0
    );
}
