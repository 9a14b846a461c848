//! Adversary-synthesis acceptance tests: the checked-in red-team spec is
//! golden (canonical bytes, pinned to its in-code twin), the search breaks
//! the tree-packing v1 frontier within budget and shrinks the failure to a
//! minimal replayable counterexample, v2 resists the same grid where v1
//! falls, and trajectories are byte-identical across thread counts and
//! shard/resume accumulation.

use mobile_congest::graphs::{GraphDef, PackingVersion};
use mobile_congest::harness::report::{assemble, read_lines};
use mobile_congest::harness::spec::{adversary_from_json, adversary_to_json, PayloadDef};
use mobile_congest::harness::{json, Campaign, CampaignSpec, SpecError};
use mobile_congest::redteam::{
    counterexample_spec, header_line, unit_line, BudgetSpec, RedTeam, RedTeamSpec, ResolvedTarget,
    SearchSpec, SearchStrategy, TargetSpec,
};
use mobile_congest::scenario::matrix::AdversaryDef;
use mobile_congest::scenario::CompilerDef;
use mobile_congest::sim::adversary::CorruptionMode;

fn frontier_text() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/specs/redteam-v1-frontier.json"
    );
    std::fs::read_to_string(path).expect("specs/redteam-v1-frontier.json is checked in")
}

/// The PR-3/PR-5 frontier cell as a red-team target: sparse small world ×
/// tree-packing v1.  `f: 1` at the compiler, so a budget-2 synthesized
/// schedule is outside what v1 promises to correct — the search's job is to
/// find a concrete witness and the shrinker's job is to cut it down.
fn frontier_target(packing: PackingVersion) -> TargetSpec {
    TargetSpec {
        graph: GraphDef::watts_strogatz(24, 6, 0.2, 23062),
        compiler: CompilerDef::TreePacking {
            f: 1,
            trees: None,
            seed: 5,
            packing,
        },
        payload: PayloadDef::FloodBroadcast {
            source: 0,
            value: 4242,
        },
        seed: 2024,
        mode: CorruptionMode::FlipLowBit,
    }
}

/// The in-code twin of `specs/redteam-v1-frontier.json`.
fn frontier_spec() -> RedTeamSpec {
    RedTeamSpec {
        search: SearchSpec {
            seed: 2024,
            chains: 6,
            steps: 40,
            strategy: SearchStrategy::Evolve,
        },
        budget: BudgetSpec { f: 2, rounds: 4 },
        targets: vec![frontier_target(PackingVersion::V1Greedy)],
    }
}

/// The shrinker's graph descent resolves every candidate graph through
/// `with_graph`; one the flooding payload cannot run on (a disconnected
/// graph) is a typed rejection there, so it is dropped instead of panicking
/// the payload constructor.
#[test]
fn with_graph_rejects_a_disconnected_shrink_candidate() {
    let target = ResolvedTarget::resolve(&frontier_target(PackingVersion::V1Greedy)).unwrap();
    match target.with_graph(&GraphDef::expander(24, 2, 2)).err() {
        Some(SpecError::Invalid { reason }) => assert!(
            reason.contains("flood-broadcast needs a connected graph"),
            "{reason}"
        ),
        other => panic!("a disconnected candidate was not rejected: {other:?}"),
    }
    assert!(target.with_graph(&GraphDef::circulant(12, 3)).is_ok());
}

#[test]
fn checked_in_frontier_spec_is_golden() {
    let text = frontier_text();
    let spec = RedTeamSpec::from_json(&text).expect("checked-in red-team spec parses");
    // parse(format(spec)) == spec, the file IS the canonical form, and the
    // file pins the in-code twin the other tests run against.
    assert_eq!(RedTeamSpec::from_json(&spec.to_json()).unwrap(), spec);
    assert_eq!(
        spec.to_json(),
        text,
        "specs/redteam-v1-frontier.json must stay in canonical to_json form"
    );
    assert_eq!(spec, frontier_spec());
}

/// The headline acceptance: against tree-packing v1 on the frontier small
/// world, the search finds a failing schedule well inside the eval budget,
/// and the shrinker reduces it to at most 3 edges per round and at most half
/// the synthesized cycle length — and the exported one-cell campaign spec
/// replays the failure deterministically.
#[test]
fn search_breaks_v1_frontier_and_shrinks_to_a_replayable_minimum() {
    let spec = frontier_spec();
    let team = RedTeam::from_spec(&spec).unwrap().threads(2);
    // Unit 0 = target 0 × chain 0; every unit is a pure function of the spec
    // and its index, so one unit is a faithful sample of the campaign.
    let outcome = &team.run_units(&[0])[0];
    assert!(
        outcome.found_at.is_some(),
        "search chain 0 no longer breaks tree-packing v1 on the frontier cell"
    );
    assert!(
        outcome.search_evals <= 500,
        "search took {} evals, budget is 500",
        outcome.search_evals
    );
    let ce = outcome.counterexample.as_ref().unwrap();
    assert!(ce.fitness.is_failure());
    assert!(
        ce.adversary.max_edges_per_round() <= 3,
        "shrunk schedule still uses {} edges in one round",
        ce.adversary.max_edges_per_round()
    );
    assert!(
        ce.adversary.rounds() <= spec.budget.rounds / 2,
        "shrunk schedule still cycles over {} rounds (budget was {})",
        ce.adversary.rounds(),
        spec.budget.rounds
    );

    // The exported spec replays the failure through the ordinary campaign
    // pipeline: same seed derivation, same verdict.
    let ce_spec = counterexample_spec(&spec.targets[0], &ce.graph, &ce.adversary);
    assert_eq!(
        CampaignSpec::from_json(&ce_spec.to_json()).unwrap(),
        ce_spec,
        "counterexample spec must round-trip through JSON"
    );
    let replay = Campaign::from_spec(&ce_spec).unwrap().threads(1).run();
    let run = replay.cells[0].outcome.as_ref().expect("replay cell runs");
    assert_eq!(
        run.agrees_with_fault_free(),
        Some(false),
        "replaying the minimized counterexample must reproduce the failure"
    );

    // And the whole unit is deterministic: a re-run serializes byte-identically.
    let again = &team.run_units(&[0])[0];
    assert_eq!(unit_line(&spec, outcome), unit_line(&spec, again));
}

/// The regression pin the synthesis loop exists for: on the single-round
/// `f = 1` grid — one corrupted edge, repeated every round — the search
/// breaks tree-packing v1 but finds **nothing** against v2 with the same
/// seeds, budget and effort.  If v2 ever regresses into this grid, or a
/// future packing change un-breaks v1's baseline, this test moves first.
#[test]
fn single_round_grid_separates_packing_v1_from_v2() {
    let search = SearchSpec {
        seed: 2024,
        chains: 2,
        steps: 40,
        strategy: SearchStrategy::Evolve,
    };
    let budget = BudgetSpec { f: 1, rounds: 1 };

    let v1 = RedTeamSpec {
        search: search.clone(),
        budget: budget.clone(),
        targets: vec![frontier_target(PackingVersion::V1Greedy)],
    };
    let v1_outcomes = RedTeam::from_spec(&v1).unwrap().threads(2).run();
    assert!(
        v1_outcomes.iter().all(|o| o.counterexample.is_some()),
        "every chain used to break v1 on the single-round grid"
    );
    for outcome in &v1_outcomes {
        let ce = outcome.counterexample.as_ref().unwrap();
        assert_eq!(ce.adversary.rounds(), 1);
        assert_eq!(ce.adversary.total_edges(), 1, "one corrupted edge suffices");
    }

    let v2 = RedTeamSpec {
        search,
        budget,
        targets: vec![frontier_target(PackingVersion::V2Augmented)],
    };
    let v2_outcomes = RedTeam::from_spec(&v2).unwrap().threads(2).run();
    for outcome in &v2_outcomes {
        assert!(
            outcome.found_at.is_none() && outcome.counterexample.is_none(),
            "tree-packing v2 regressed: chain {} found a single-edge cyclic failure",
            outcome.chain
        );
    }
}

#[test]
fn checked_in_minimal_counterexample_is_golden_and_replays_to_disagreement() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/specs/redteam-minimal-example.json"
    );
    let text =
        std::fs::read_to_string(path).expect("specs/redteam-minimal-example.json is checked in");
    let spec = CampaignSpec::from_json(&text).expect("minimal example parses");
    assert_eq!(
        spec.to_json(),
        text,
        "specs/redteam-minimal-example.json must stay in canonical to_json form"
    );
    let report = Campaign::from_spec(&spec).unwrap().threads(1).run();
    assert_eq!(report.cells.len(), 1);
    let run = report.cells[0].outcome.as_ref().expect("the cell runs");
    assert_eq!(
        run.agrees_with_fault_free(),
        Some(false),
        "the checked-in single-edge counterexample must still break v1"
    );
}

#[test]
fn synthesized_adversary_json_round_trips_and_defaults_mode() {
    let def = AdversaryDef::Synthesized {
        schedule: vec![vec![2, 5], vec![], vec![7]],
        mode: CorruptionMode::Drop,
    };
    let encoded = adversary_to_json(&def);
    let parsed = adversary_from_json(&json::parse(&encoded).unwrap()).unwrap();
    assert_eq!(parsed, def);

    // An omitted mode defaults to flip-low-bit, the minimal hard-to-detect
    // corruption the search aims for.
    let omitted = json::parse(r#"{"kind":"synthesized","schedule":[[1,2]]}"#).unwrap();
    assert_eq!(
        adversary_from_json(&omitted).unwrap(),
        AdversaryDef::Synthesized {
            schedule: vec![vec![1, 2]],
            mode: CorruptionMode::FlipLowBit,
        }
    );
}

/// A cheap all-chains spec for the determinism tests: the uncompiled
/// baseline on a small complete graph, which every chain breaks instantly.
fn tiny_spec() -> RedTeamSpec {
    RedTeamSpec {
        search: SearchSpec {
            seed: 11,
            chains: 4,
            steps: 2,
            strategy: SearchStrategy::Evolve,
        },
        budget: BudgetSpec { f: 1, rounds: 2 },
        targets: vec![TargetSpec {
            graph: GraphDef::complete(6),
            compiler: CompilerDef::Uncompiled,
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 99,
            },
            seed: 3,
            mode: CorruptionMode::FlipLowBit,
        }],
    }
}

fn trajectory_at(spec: &RedTeamSpec, threads: usize) -> String {
    let team = RedTeam::from_spec(spec).unwrap().threads(threads);
    let lines: Vec<(usize, String)> = team
        .run()
        .iter()
        .map(|o| (o.unit, unit_line(spec, o)))
        .collect();
    assemble(&header_line(spec), &lines)
}

#[test]
fn trajectories_are_byte_identical_across_threads_and_shard_resume() {
    let spec = tiny_spec();
    let reference = trajectory_at(&spec, 1);

    // Same bytes at any thread count.
    for threads in [2, 8] {
        assert_eq!(
            trajectory_at(&spec, threads),
            reference,
            "trajectory diverged at {threads} threads"
        );
    }

    // Two shards, accumulated the way `--resume` does (parse the kept file,
    // append the new shard's lines, reassemble), equal the one-shot run.
    let mut kept: Vec<(usize, String)> = Vec::new();
    for index in 0..2 {
        let team = RedTeam::from_spec(&spec)
            .unwrap()
            .threads(2)
            .shard(index, 2);
        let fresh: Vec<(usize, String)> = team
            .run()
            .iter()
            .map(|o| (o.unit, unit_line(&spec, o)))
            .collect();
        // Round-trip through the file format, as the CLI does between runs.
        let file = assemble(&header_line(&spec), &[kept, fresh].concat());
        kept = read_lines(&file, "redteam", "unit", &spec.fingerprint()).unwrap();
    }
    assert_eq!(assemble(&header_line(&spec), &kept), reference);
}
