//! A deterministic parallel campaign: the clique and a sparse circulant under
//! byzantine and eavesdropping adversaries, through four compilers, four
//! seed repetitions per cell, fanned across worker threads — with the typed
//! `CompilerNotes` diagnostics aggregated per grid cell and the JSONL
//! trajectory printed at the end.  The whole experiment is one serializable
//! `CampaignSpec` (scenario-as-data); the finale re-runs it from its JSON
//! form and shows the report is byte-identical.
//!
//! Run with `cargo run --example campaign`.

use mobile_congest::graphs::GraphDef;
use mobile_congest::harness::campaign::summary_table;
use mobile_congest::harness::{Campaign, CampaignSpec, GridSpec, PayloadDef};
use mobile_congest::scenario::matrix::AdversaryDef;
use mobile_congest::scenario::CompilerDef;

fn main() {
    let spec = CampaignSpec {
        seed: 0xC0FFEE,
        repetitions: 4,
        grid: GridSpec {
            graphs: vec![GraphDef::complete(12), GraphDef::circulant(18, 4)],
            adversaries: vec![
                AdversaryDef::RandomMobile { f: 1 },
                AdversaryDef::Eavesdropper { f: 2 },
            ],
            compilers: vec![
                CompilerDef::Uncompiled,
                CompilerDef::Clique { f: 1, seed: 5 },
                CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 5,
                    packing: Default::default(),
                },
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
            ],
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 777,
            },
        },
    };
    let campaign = Campaign::from_spec(&spec).expect("the spec resolves through the registries");

    println!(
        "running {} cells on {} workers ...\n",
        campaign.cell_count(),
        mobile_congest::harness::default_threads()
    );
    let report = campaign.run();
    let summaries = report.summaries();

    print!("{}", summary_table(&summaries));
    println!(
        "\n{} cells, {} skipped by validation; protected cells agree with fault-free: {}",
        report.cells.len(),
        report.skipped_count(),
        report.all_protected_cells_agree()
    );

    // Typed notes survive aggregation: the resilient compilers report their
    // correction verdict, the secrecy compiler its key-round budget.
    for s in &summaries {
        if let Some(stat) = s.stat("fully_corrected") {
            println!(
                "{:<12} {:<14} {:<22} fully_corrected mean over {} reps: {:.2}",
                s.graph, s.adversary, s.compiler, stat.count, stat.mean
            );
        }
        if let Some(stat) = s.stat("key_rounds") {
            println!(
                "{:<12} {:<14} {:<22} key rounds p50/p99: {}/{}",
                s.graph, s.adversary, s.compiler, stat.p50, stat.p99
            );
        }
    }

    // The first few lines of the JSONL trajectory the bench harness exports.
    println!("\nJSONL trajectory (first 3 lines):");
    for line in report.to_jsonl().lines().take(3) {
        println!("{line}");
    }

    assert!(report.all_protected_cells_agree());

    // Scenario-as-data: the JSON form of the spec is the experiment — it can
    // be checked in, diffed, sharded across machines and resumed (see
    // `cargo run --bin campaign -- --spec specs/e16-small.json`), and running
    // it again reproduces every cell byte for byte.
    let reparsed = CampaignSpec::from_json(&spec.to_json()).expect("the JSON form parses");
    let rerun = Campaign::from_spec(&reparsed)
        .expect("the reparsed spec resolves")
        .threads(1)
        .run();
    assert_eq!(
        rerun.fingerprint(),
        report.fingerprint(),
        "a campaign is a pure function of its spec"
    );
    println!(
        "\nscenario-as-data: the spec's JSON form reproduced all {} cells byte-identically \
         on one worker",
        rerun.cells.len()
    );
    println!(
        "spec fingerprint {} — the first lines of its JSON form:",
        spec.fingerprint()
    );
    for line in spec.to_json().lines().take(8) {
        println!("  {line}");
    }
}
