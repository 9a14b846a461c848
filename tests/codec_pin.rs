//! Byte pins for the canonical JSON codec (`harness::json`).
//!
//! Spec fingerprints, report fingerprints, artifact-cache keys and the
//! server == CLI identity all hash or compare canonical JSON, so the exact
//! bytes of every document type are part of the contract.  The constants
//! below were captured **at the parent of the one-codec port** (when every
//! type still built a `JsonValue` tree or a `format!` string of its own), in
//! the manner of `tests/wire_pin.rs`: one representative value per document
//! type, and the `Display` of one missing-field error per decoder.  Any
//! change to escaping, number tokens, separators, field order or an error
//! path moves them.

use mobile_congest::campaignd::api_types::{ApiError, JobList, JobStatus, QueryResponse, QueryRow};
use mobile_congest::campaignd::store::{FsStore, Store};
use mobile_congest::campaignd::JobState;
use mobile_congest::graphs::{GraphDef, PackingVersion};
use mobile_congest::harness::campaign::{summary_json, GroupSummary};
use mobile_congest::harness::report::{trajectory_header, CellRecord, RecordOutcome};
use mobile_congest::harness::spec::{
    adversary_from_json, adversary_to_json, compiler_from_json, compiler_to_json, graph_from_json,
    graph_to_json, mode_from_json, mode_to_json, payload_from_json, payload_to_json,
};
use mobile_congest::harness::{json, CampaignSpec, GridSpec, PayloadDef, StatSummary};
use mobile_congest::redteam::{
    header_line, unit_line, BudgetSpec, Counterexample, Fitness, RedTeamSpec, SearchSpec,
    SearchStrategy, SynthesizedAdversary, TargetSpec, UnitOutcome,
};
use mobile_congest::scenario::matrix::AdversaryDef;
use mobile_congest::scenario::{
    CompilerDef, CrashWindow, DropModel, LatencyModel, PartitionWindow, ScheduleDef,
};
use mobile_congest::sim::adversary::CorruptionMode;

fn status(optionals: bool) -> JobStatus {
    JobStatus {
        fingerprint: "00112233deadbeef".into(),
        state: if optionals {
            JobState::Failed
        } else {
            JobState::Running
        },
        cells_total: 54,
        cells_done: 20,
        executed: 18,
        skipped: 2,
        failed: 0,
        disagreements: 1,
        report_fingerprint: optionals.then(|| "ffee00112233aabb".into()),
        error: optionals.then(|| "store \"cells.log\" failed\nretry".into()),
    }
}

fn ok_record(agrees: Option<bool>, notes: Vec<(String, f64)>) -> CellRecord {
    CellRecord {
        index: 5,
        graph: "small-world(24,6)".into(),
        adversary: "greedy \"heaviest\"".into(),
        compiler: "tree-packing(f=1,k=9,v2)".into(),
        repetition: 1,
        seed: u64::MAX - 3,
        outcome: RecordOutcome::Ok {
            payload_rounds: 3,
            network_rounds: 10,
            corrupted_edge_rounds: 4,
            cong_p99: 7.0,
            cong_topk: 6.333333333333333,
            agrees,
            notes_type: "resilient".into(),
            notes,
        },
    }
}

fn records() -> Vec<(&'static str, CellRecord)> {
    vec![
        (
            "ok",
            ok_record(
                Some(false),
                vec![("fully_corrected".into(), 0.0), ("good_trees".into(), 8.5)],
            ),
        ),
        ("ok-unreferenced", ok_record(None, Vec::new())),
        (
            "skipped",
            CellRecord {
                outcome: RecordOutcome::Skipped {
                    error: "pairing \"clique\" \\ ring unsupported".into(),
                },
                ..ok_record(None, Vec::new())
            },
        ),
        (
            "failed",
            CellRecord {
                outcome: RecordOutcome::Failed {
                    error: "boom\nline2\ttab \u{1} end".into(),
                },
                ..ok_record(None, Vec::new())
            },
        ),
    ]
}

fn summary(traced: bool) -> GroupSummary {
    let stat = |scale: f64| StatSummary {
        count: 2,
        mean: 10.5 * scale,
        stddev: std::f64::consts::FRAC_1_SQRT_2,
        min: 10.0 * scale,
        max: 11.0 * scale,
        p10: 10.0 * scale,
        p50: 10.0 * scale,
        p90: 11.0 * scale,
        p99: 11.0 * scale,
    };
    GroupSummary {
        graph: "K8".into(),
        adversary: "random-mobile".into(),
        compiler: "clique(f=1)".into(),
        executed: 2,
        skipped: 0,
        failed: 1,
        disagreements: 0,
        stats: vec![
            ("network_rounds".into(), stat(1.0)),
            ("overhead".into(), stat(0.25)),
        ],
        profile: if traced {
            vec![
                ("packing".into(), 4, 1.25),
                ("round_exchange".into(), 20, 3.0),
            ]
        } else {
            Vec::new()
        },
    }
}

fn full_schedule() -> ScheduleDef {
    ScheduleDef {
        latency: LatencyModel::Uniform { min: 1, max: 4 },
        reorder_window: 2,
        drops: DropModel::EveryKth { k: 7 },
        partitions: vec![PartitionWindow {
            from: 3,
            until: 9,
            island: vec![0, 1, 2],
        }],
        crashes: vec![CrashWindow {
            node: 4,
            from: 2,
            until: 6,
        }],
    }
}

fn synthesized() -> AdversaryDef {
    AdversaryDef::Synthesized {
        schedule: vec![vec![2, 5], vec![], vec![7]],
        mode: CorruptionMode::Constant(424242),
    }
}

fn campaign_spec() -> CampaignSpec {
    CampaignSpec {
        seed: u64::MAX - 1,
        repetitions: 2,
        grid: GridSpec {
            graphs: vec![
                GraphDef::complete(8),
                GraphDef::circulant(10, 2),
                GraphDef::watts_strogatz(20, 4, 0.25, 99),
            ],
            adversaries: vec![
                AdversaryDef::RandomMobile { f: 1 },
                AdversaryDef::SweepMobile { f: 2 },
                AdversaryDef::GreedyHeaviest {
                    f: 1,
                    mode: CorruptionMode::FlipLowBit,
                },
                AdversaryDef::AdaptiveHeaviest { f: 1 },
                AdversaryDef::Eclipse {
                    node: 3,
                    f: 2,
                    mode: CorruptionMode::Drop,
                },
                AdversaryDef::Burst {
                    quiet: 6,
                    burst: 2,
                    per_round: 4,
                    total: 12,
                },
                AdversaryDef::Eavesdropper { f: 2 },
                synthesized(),
            ],
            compilers: vec![
                CompilerDef::Uncompiled,
                CompilerDef::Async {
                    schedule: ScheduleDef::synchronous(),
                },
                CompilerDef::Async {
                    schedule: ScheduleDef::synchronous()
                        .with_latency(LatencyModel::Fixed { ticks: 3 }),
                },
                CompilerDef::Async {
                    schedule: full_schedule(),
                },
                CompilerDef::FaultFree,
                CompilerDef::Clique { f: 1, seed: 5 },
                CompilerDef::TreePacking {
                    f: 1,
                    trees: Some(9),
                    seed: 5,
                    packing: PackingVersion::V2Augmented,
                },
                CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 6,
                    packing: PackingVersion::V1Greedy,
                },
                CompilerDef::CycleCover { f: 1 },
                CompilerDef::Expander {
                    f: 1,
                    k: 5,
                    bfs_rounds: 6,
                    seed: 13,
                },
                CompilerDef::Rewind { f: 1, seed: 9 },
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
                CompilerDef::CongestionSensitive {
                    f: 1,
                    words: 2,
                    seed: 5,
                },
            ],
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 4242,
            },
        },
    }
}

fn redteam_spec() -> RedTeamSpec {
    RedTeamSpec {
        search: SearchSpec {
            seed: 2024,
            chains: 2,
            steps: 32,
            strategy: SearchStrategy::Evolve,
        },
        budget: BudgetSpec { f: 2, rounds: 4 },
        targets: vec![
            TargetSpec {
                graph: GraphDef::watts_strogatz(24, 6, 0.2, 23062),
                compiler: CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 5,
                    packing: PackingVersion::V1Greedy,
                },
                payload: PayloadDef::FloodBroadcast {
                    source: 0,
                    value: 4242,
                },
                seed: 2024,
                mode: CorruptionMode::FlipLowBit,
            },
            TargetSpec {
                graph: GraphDef::complete(6),
                compiler: CompilerDef::Uncompiled,
                payload: PayloadDef::TokenDissemination { batch: 2 },
                seed: 7,
                mode: CorruptionMode::Constant(9),
            },
        ],
    }
}

fn unit(with_counterexample: bool) -> UnitOutcome {
    let fitness = Fitness {
        failed_decode: with_counterexample,
        residual_mismatches: 3,
        rewinds: 0,
        attack_pressure: 17,
        max_congestion: 6,
    };
    UnitOutcome {
        unit: 3,
        target: 1,
        chain: 1,
        search_evals: 33,
        found_at: with_counterexample.then_some(12),
        best_fitness: fitness,
        counterexample: with_counterexample.then(|| Counterexample {
            graph: GraphDef::complete(5),
            adversary: SynthesizedAdversary::new(
                vec![vec![2, 5], vec![], vec![7]],
                CorruptionMode::Constant(9),
            ),
            fitness,
            shrink_evals: 41,
        }),
    }
}

/// The `state.json` bytes `FsStore::set_state` leaves on disk.
fn state_document() -> String {
    let dir = std::env::temp_dir().join(format!("codec-pin-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FsStore::open(&dir).unwrap();
    let spec = campaign_spec();
    let fp = spec.fingerprint();
    store.put_spec(&fp, &spec.to_json()).unwrap();
    store.set_state(&fp, JobState::Cancelled).unwrap();
    let text = std::fs::read_to_string(dir.join("jobs").join(&fp).join("state.json")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// One representative value of every document type, encoded.
fn documents() -> Vec<(String, String)> {
    let mut docs: Vec<(String, String)> = Vec::new();
    let mut doc = |name: &str, text: String| docs.push((name.to_string(), text));

    // Server documents.
    doc("job-status", status(false).to_json());
    doc("job-status/optionals", status(true).to_json());
    doc(
        "job-list",
        JobList {
            jobs: vec![status(false), status(true)],
        }
        .to_json(),
    );
    doc("job-list/empty", JobList::default().to_json());
    doc(
        "query",
        QueryResponse {
            facet: "overhead".into(),
            stat: "p99".into(),
            rows: vec![
                QueryRow {
                    job: "00112233deadbeef".into(),
                    graph: "K8".into(),
                    adversary: "random-mobile".into(),
                    compiler: "clique(f=1)".into(),
                    value: 12.25,
                },
                QueryRow {
                    job: "ffee00112233aabb".into(),
                    graph: "ring \"of\" cliques".into(),
                    adversary: "eclipse".into(),
                    compiler: "uncompiled".into(),
                    value: 3.0,
                },
            ],
        }
        .to_json(),
    );
    doc(
        "api-error",
        ApiError {
            error: "no job with fingerprint `xyz`\n".into(),
        }
        .to_json(),
    );
    doc("job-state", state_document());

    // Report documents.
    for (name, record) in records() {
        doc(&format!("cell-record/{name}"), record.to_json());
        doc(&format!("cell/{name}"), record.cell_line());
    }
    doc("summary", summary_json(&summary(false)));
    doc("summary/traced", summary_json(&summary(true)));
    doc("campaign-header", trajectory_header(&campaign_spec()));

    // Spec documents and the per-def encoders.
    doc("campaign-spec", campaign_spec().to_json());
    doc("campaign-spec/fingerprint", campaign_spec().fingerprint());
    doc(
        "graph",
        graph_to_json(&GraphDef::watts_strogatz(20, 4, 0.25, 99)),
    );
    doc("adversary", adversary_to_json(&synthesized()));
    doc(
        "compiler",
        compiler_to_json(&CompilerDef::Async {
            schedule: full_schedule(),
        }),
    );
    doc(
        "payload",
        payload_to_json(&PayloadDef::TokenDissemination { batch: 3 }),
    );
    doc(
        "mode/label",
        mode_to_json(CorruptionMode::ReplaceRandom).to_string(),
    );
    doc(
        "mode/constant",
        mode_to_json(CorruptionMode::Constant(u64::MAX)).to_string(),
    );

    // Red-team documents.
    let redteam = redteam_spec();
    doc("redteam-spec", redteam.to_json());
    doc("redteam-spec/fingerprint", redteam.fingerprint());
    doc("redteam-header", header_line(&redteam));
    doc("unit", unit_line(&redteam, &unit(false)));
    doc("unit/counterexample", unit_line(&redteam, &unit(true)));
    doc("fitness", unit(true).best_fitness.json());
    docs
}

/// One missing-or-mistyped field per decoder: `(decoder, document)`, mapped
/// to the `Display` of the error it yields.
fn decode_errors() -> Vec<(String, String)> {
    let value = |text: &str| json::parse(text).unwrap();
    let spec_with = |graphs: &str, adversaries: &str, compilers: &str, payload: &str| {
        format!(
            r#"{{"kind":"campaign-spec","seed":1,"repetitions":1,"grid":{{"graphs":[{graphs}],"adversaries":[{adversaries}],"compilers":[{compilers}],"payload":{payload}}}}}"#
        )
    };
    const G: &str = r#"{"family":"complete","n":6}"#;
    const A: &str = r#"{"kind":"random-mobile","f":1}"#;
    const C: &str = r#"{"id":"uncompiled"}"#;
    const P: &str = r#"{"kind":"exchange-ids"}"#;
    let campaign = |text: String| CampaignSpec::from_json(&text).unwrap_err().to_string();
    let redteam = |text: &str| RedTeamSpec::from_json(text).unwrap_err().to_string();
    let ok_line = records()[0].1.to_json();

    let cases: Vec<(&str, String)> = vec![
        // CampaignSpec and the per-def decoders it walks.
        ("campaign-spec/seed", campaign(r#"{"repetitions":1,"grid":{}}"#.into())),
        ("campaign-spec/grid", campaign(r#"{"seed":1,"repetitions":1}"#.into())),
        (
            "campaign-spec/grid.compilers",
            campaign(r#"{"seed":1,"repetitions":1,"grid":{"graphs":[],"adversaries":[]}}"#.into()),
        ),
        (
            "campaign-spec/kind",
            campaign(r#"{"kind":"redteam-spec","seed":1}"#.into()),
        ),
        (
            "payload/source",
            campaign(spec_with(G, A, C, r#"{"kind":"flood-broadcast","value":1}"#)),
        ),
        (
            "adversary/schedule-row-element",
            campaign(spec_with(
                G,
                r#"{"kind":"synthesized","schedule":[[1],[2,"x"]]}"#,
                C,
                P,
            )),
        ),
        (
            "compiler/island-element",
            campaign(spec_with(
                G,
                A,
                r#"{"id":"async","partitions":[{"from":1,"until":2,"island":[0,-1]}]}"#,
                P,
            )),
        ),
        (
            "graph/n",
            graph_from_json(&value(r#"{"family":"complete"}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "graph/param",
            graph_from_json(&value(r#"{"family":"circulant","n":8,"k":"two"}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "graph/family-label",
            graph_from_json(&value(r#"{"family":"moebius","n":8}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "mode",
            mode_from_json(&value(r#"{"constant":"x"}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "adversary/f",
            adversary_from_json(&value(r#"{"kind":"eclipse","node":1}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "adversary/schedule-row",
            adversary_from_json(&value(r#"{"kind":"synthesized","schedule":[[1],2]}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "compiler/seed",
            compiler_from_json(&value(r#"{"id":"clique","f":1}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "compiler/packing",
            compiler_from_json(&value(r#"{"id":"tree-packing","f":1,"seed":1,"packing":2}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "compiler/ticks",
            compiler_from_json(&value(r#"{"id":"async","latency":"fixed"}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "compiler/latency-label",
            compiler_from_json(&value(r#"{"id":"async","latency":"warp"}"#))
                .unwrap_err()
                .to_string(),
        ),
        (
            "compiler/crash-node",
            compiler_from_json(&value(
                r#"{"id":"async","crashes":[{"from":1,"until":2}]}"#,
            ))
            .unwrap_err()
            .to_string(),
        ),
        (
            "compiler/partition-until",
            compiler_from_json(&value(
                r#"{"id":"async","partitions":[{"from":1,"island":[0]}]}"#,
            ))
            .unwrap_err()
            .to_string(),
        ),
        (
            "payload/kind",
            payload_from_json(&value(r#"{"batch":1}"#))
                .unwrap_err()
                .to_string(),
        ),
        // CellRecord.
        (
            "cell-record/notes-metric",
            CellRecord::from_json(&ok_line.replace("8.5", "\"high\""))
                .unwrap_err()
                .to_string(),
        ),
        (
            "cell-record/agrees",
            CellRecord::from_json(&ok_line.replace("\"agrees\":false", "\"agrees\":0"))
                .unwrap_err()
                .to_string(),
        ),
        (
            "cell-record/kind",
            CellRecord::from_json(r#"{"kind":"cell","index":0}"#)
                .unwrap_err()
                .to_string(),
        ),
        (
            "cell-record/status",
            CellRecord::from_json(&ok_line.replace("\"status\":\"ok\"", "\"status\":\"lost\""))
                .unwrap_err()
                .to_string(),
        ),
        // Server documents.
        (
            "job-status/cells_total",
            JobStatus::from_json(&status(false).to_json().replace("\"cells_total\":54,", ""))
                .unwrap_err()
                .to_string(),
        ),
        (
            "job-status/state-label",
            JobStatus::from_json(&status(false).to_json().replace("running", "paused"))
                .unwrap_err()
                .to_string(),
        ),
        (
            "job-status/kind",
            JobStatus::from_json(r#"{"kind":"job-list"}"#)
                .unwrap_err()
                .to_string(),
        ),
        (
            "job-list/jobs",
            JobList::from_json(r#"{"kind":"job-list","jobs":{}}"#)
                .unwrap_err()
                .to_string(),
        ),
        (
            "query/row-value",
            QueryResponse::from_json(
                r#"{"kind":"query","facet":"f","stat":"s","rows":[{"job":"j","graph":"g","adversary":"a","compiler":"c"}]}"#,
            )
            .unwrap_err()
            .to_string(),
        ),
        (
            "api-error/error",
            ApiError::from_json(r#"{"kind":"error"}"#)
                .unwrap_err()
                .to_string(),
        ),
        // RedTeamSpec.
        (
            "redteam-spec/targets-seed",
            redteam(
                r#"{"search":{"seed":1,"chains":1,"steps":1},"budget":{"f":1,"rounds":1},"targets":[{"graph":{"family":"complete","n":5},"compiler":{"id":"uncompiled"},"payload":{"kind":"leader-election"}}]}"#,
            ),
        ),
        (
            "redteam-spec/search.chains",
            redteam(r#"{"search":{"seed":1,"steps":1},"budget":{"f":1,"rounds":1},"targets":[]}"#),
        ),
        (
            "redteam-spec/budget",
            redteam(r#"{"search":{"seed":1,"chains":1,"steps":1},"targets":[]}"#),
        ),
        (
            "redteam-spec/strategy-label",
            redteam(
                r#"{"search":{"seed":1,"chains":1,"steps":1,"strategy":"anneal"},"budget":{"f":1,"rounds":1},"targets":[]}"#,
            ),
        ),
        (
            "redteam-spec/target-compiler",
            redteam(
                r#"{"search":{"seed":1,"chains":1,"steps":1},"budget":{"f":1,"rounds":1},"targets":[{"graph":{"family":"complete","n":5}}]}"#,
            ),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, text)| (name.to_string(), text))
        .collect()
}

fn assert_pinned(actual: Vec<(String, String)>, expected: &[(&str, &str)]) {
    assert_eq!(
        actual.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        expected.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "the pin table and the generated documents must list the same names"
    );
    for ((name, got), (_, want)) in actual.iter().zip(expected) {
        assert_eq!(got, want, "`{name}` moved");
    }
}

#[test]
fn every_document_type_encodes_to_its_pinned_bytes() {
    assert_pinned(documents(), DOCUMENTS);
}

#[test]
fn every_decoder_names_the_offending_field_by_its_pinned_path() {
    assert_pinned(decode_errors(), ERRORS);
}

#[test]
fn pinned_documents_decode_back_to_the_values_they_encode() {
    // The pins are not write-only: each decodable one parses back to the
    // value it was encoded from.
    assert_eq!(
        JobStatus::from_json(pinned("job-status/optionals")).unwrap(),
        status(true)
    );
    assert_eq!(
        JobList::from_json(pinned("job-list")).unwrap().jobs,
        vec![status(false), status(true)]
    );
    for (name, record) in records() {
        let line = pinned(&format!("cell-record/{name}"));
        assert_eq!(CellRecord::from_json(line).unwrap(), record);
    }
    assert_eq!(
        CampaignSpec::from_json(pinned("campaign-spec")).unwrap(),
        campaign_spec()
    );
    assert_eq!(
        RedTeamSpec::from_json(pinned("redteam-spec")).unwrap(),
        redteam_spec()
    );
}

fn pinned(name: &str) -> &'static str {
    DOCUMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no pin named `{name}`"))
        .1
}

const DOCUMENTS: &[(&str, &str)] = &[
    (
        "job-status",
        r#"{"kind":"job-status","fingerprint":"00112233deadbeef","state":"running","cells_total":54,"cells_done":20,"executed":18,"skipped":2,"failed":0,"disagreements":1}"#,
    ),
    (
        "job-status/optionals",
        r#"{"kind":"job-status","fingerprint":"00112233deadbeef","state":"failed","cells_total":54,"cells_done":20,"executed":18,"skipped":2,"failed":0,"disagreements":1,"report_fingerprint":"ffee00112233aabb","error":"store \"cells.log\" failed\nretry"}"#,
    ),
    (
        "job-list",
        r#"{"kind":"job-list","jobs":[{"kind":"job-status","fingerprint":"00112233deadbeef","state":"running","cells_total":54,"cells_done":20,"executed":18,"skipped":2,"failed":0,"disagreements":1},{"kind":"job-status","fingerprint":"00112233deadbeef","state":"failed","cells_total":54,"cells_done":20,"executed":18,"skipped":2,"failed":0,"disagreements":1,"report_fingerprint":"ffee00112233aabb","error":"store \"cells.log\" failed\nretry"}]}"#,
    ),
    ("job-list/empty", r#"{"kind":"job-list","jobs":[]}"#),
    (
        "query",
        r#"{"kind":"query","facet":"overhead","stat":"p99","rows":[{"job":"00112233deadbeef","graph":"K8","adversary":"random-mobile","compiler":"clique(f=1)","value":12.25},{"job":"ffee00112233aabb","graph":"ring \"of\" cliques","adversary":"eclipse","compiler":"uncompiled","value":3}]}"#,
    ),
    (
        "api-error",
        r#"{"kind":"error","error":"no job with fingerprint `xyz`\n"}"#,
    ),
    (
        "job-state",
        r#"{"kind":"job-state","state":"cancelled"}
"#,
    ),
    (
        "cell-record/ok",
        r#"{"kind":"cell-record","index":5,"graph":"small-world(24,6)","adversary":"greedy \"heaviest\"","compiler":"tree-packing(f=1,k=9,v2)","repetition":1,"seed":18446744073709551612,"status":"ok","payload_rounds":3,"network_rounds":10,"corrupted_edge_rounds":4,"cong_p99":7,"cong_topk":6.333333333333333,"agrees":false,"notes":{"type":"resilient","metrics":{"fully_corrected":0,"good_trees":8.5}}}"#,
    ),
    (
        "cell/ok",
        r#"{"kind":"cell","index":5,"graph":"small-world(24,6)","adversary":"greedy \"heaviest\"","compiler":"tree-packing(f=1,k=9,v2)","repetition":1,"seed":18446744073709551612,"status":"ok","payload_rounds":3,"network_rounds":10,"overhead":3.3333333333333335,"corrupted_edge_rounds":4,"agrees":false,"notes":{"type":"resilient","fully_corrected":0,"good_trees":8.5}}"#,
    ),
    (
        "cell-record/ok-unreferenced",
        r#"{"kind":"cell-record","index":5,"graph":"small-world(24,6)","adversary":"greedy \"heaviest\"","compiler":"tree-packing(f=1,k=9,v2)","repetition":1,"seed":18446744073709551612,"status":"ok","payload_rounds":3,"network_rounds":10,"corrupted_edge_rounds":4,"cong_p99":7,"cong_topk":6.333333333333333,"agrees":null,"notes":{"type":"resilient","metrics":{}}}"#,
    ),
    (
        "cell/ok-unreferenced",
        r#"{"kind":"cell","index":5,"graph":"small-world(24,6)","adversary":"greedy \"heaviest\"","compiler":"tree-packing(f=1,k=9,v2)","repetition":1,"seed":18446744073709551612,"status":"ok","payload_rounds":3,"network_rounds":10,"overhead":3.3333333333333335,"corrupted_edge_rounds":4,"agrees":null,"notes":{"type":"resilient"}}"#,
    ),
    (
        "cell-record/skipped",
        r#"{"kind":"cell-record","index":5,"graph":"small-world(24,6)","adversary":"greedy \"heaviest\"","compiler":"tree-packing(f=1,k=9,v2)","repetition":1,"seed":18446744073709551612,"status":"skipped","error":"pairing \"clique\" \\ ring unsupported"}"#,
    ),
    (
        "cell/skipped",
        r#"{"kind":"cell","index":5,"graph":"small-world(24,6)","adversary":"greedy \"heaviest\"","compiler":"tree-packing(f=1,k=9,v2)","repetition":1,"seed":18446744073709551612,"status":"skipped","error":"pairing \"clique\" \\ ring unsupported"}"#,
    ),
    (
        "cell-record/failed",
        r#"{"kind":"cell-record","index":5,"graph":"small-world(24,6)","adversary":"greedy \"heaviest\"","compiler":"tree-packing(f=1,k=9,v2)","repetition":1,"seed":18446744073709551612,"status":"failed","error":"boom\nline2\ttab \u0001 end"}"#,
    ),
    (
        "cell/failed",
        r#"{"kind":"cell","index":5,"graph":"small-world(24,6)","adversary":"greedy \"heaviest\"","compiler":"tree-packing(f=1,k=9,v2)","repetition":1,"seed":18446744073709551612,"status":"failed","error":"boom\nline2\ttab \u0001 end"}"#,
    ),
    (
        "summary",
        r#"{"kind":"summary","graph":"K8","adversary":"random-mobile","compiler":"clique(f=1)","executed":2,"skipped":0,"failed":1,"disagreements":0,"stats":{"network_rounds":{"mean":10.5,"stddev":0.7071067811865476,"min":10,"max":11,"p10":10,"p50":10,"p90":11,"p99":11},"overhead":{"mean":2.625,"stddev":0.7071067811865476,"min":2.5,"max":2.75,"p10":2.5,"p50":2.5,"p90":2.75,"p99":2.75}}}"#,
    ),
    (
        "summary/traced",
        r#"{"kind":"summary","graph":"K8","adversary":"random-mobile","compiler":"clique(f=1)","executed":2,"skipped":0,"failed":1,"disagreements":0,"stats":{"network_rounds":{"mean":10.5,"stddev":0.7071067811865476,"min":10,"max":11,"p10":10,"p50":10,"p90":11,"p99":11},"overhead":{"mean":2.625,"stddev":0.7071067811865476,"min":2.5,"max":2.75,"p10":2.5,"p50":2.5,"p90":2.75,"p99":2.75}},"profile":{"packing":{"spans":4,"ms":1.25},"round_exchange":{"spans":20,"ms":3}}}"#,
    ),
    (
        "campaign-header",
        r#"{"kind":"campaign","fingerprint":"42c46dbfdcb1caa7","seed":18446744073709551614,"repetitions":2,"cells":624}"#,
    ),
    (
        "campaign-spec",
        r#"{
  "kind": "campaign-spec",
  "seed": 18446744073709551614,
  "repetitions": 2,
  "grid": {
    "graphs": [
      {"family":"complete","n":8},
      {"family":"circulant","n":10,"k":2},
      {"family":"watts-strogatz","n":20,"k":4,"beta":0.25,"seed":99}
    ],
    "adversaries": [
      {"kind":"random-mobile","f":1},
      {"kind":"sweep-mobile","f":2},
      {"kind":"greedy-heaviest","f":1,"mode":"flip-low-bit"},
      {"kind":"adaptive-heaviest","f":1},
      {"kind":"eclipse","node":3,"f":2,"mode":"drop"},
      {"kind":"burst","quiet":6,"burst":2,"per_round":4,"total":12},
      {"kind":"eavesdropper","f":2},
      {"kind":"synthesized","schedule":[[2,5],[],[7]],"mode":{"constant":424242}}
    ],
    "compilers": [
      {"id":"uncompiled"},
      {"id":"async"},
      {"id":"async","latency":"fixed","ticks":3},
      {"id":"async","latency":"uniform","min":1,"max":4,"reorder":2,"drop_every":7,"partitions":[{"from":3,"until":9,"island":[0,1,2]}],"crashes":[{"node":4,"from":2,"until":6}]},
      {"id":"fault-free"},
      {"id":"clique","f":1,"seed":5},
      {"id":"tree-packing","f":1,"trees":9,"seed":5,"packing":"v2"},
      {"id":"tree-packing","f":1,"seed":6,"packing":"v1"},
      {"id":"cycle-cover","f":1},
      {"id":"expander","f":1,"k":5,"bfs_rounds":6,"seed":13},
      {"id":"rewind","f":1,"seed":9},
      {"id":"static-to-mobile","t":4,"words":2,"seed":5},
      {"id":"congestion-sensitive","f":1,"words":2,"seed":5}
    ],
    "payload": {"kind":"flood-broadcast","source":0,"value":4242}
  }
}
"#,
    ),
    ("campaign-spec/fingerprint", r#"42c46dbfdcb1caa7"#),
    (
        "graph",
        r#"{"family":"watts-strogatz","n":20,"k":4,"beta":0.25,"seed":99}"#,
    ),
    (
        "adversary",
        r#"{"kind":"synthesized","schedule":[[2,5],[],[7]],"mode":{"constant":424242}}"#,
    ),
    (
        "compiler",
        r#"{"id":"async","latency":"uniform","min":1,"max":4,"reorder":2,"drop_every":7,"partitions":[{"from":3,"until":9,"island":[0,1,2]}],"crashes":[{"node":4,"from":2,"until":6}]}"#,
    ),
    ("payload", r#"{"kind":"token-dissemination","batch":3}"#),
    ("mode/label", r#""replace-random""#),
    ("mode/constant", r#"{"constant":18446744073709551615}"#),
    (
        "redteam-spec",
        r#"{
  "kind": "redteam-spec",
  "search": {"seed": 2024, "chains": 2, "steps": 32, "strategy": "evolve"},
  "budget": {"f": 2, "rounds": 4},
  "targets": [
    {
      "graph": {"family":"watts-strogatz","n":24,"k":6,"beta":0.2,"seed":23062},
      "compiler": {"id":"tree-packing","f":1,"seed":5,"packing":"v1"},
      "payload": {"kind":"flood-broadcast","source":0,"value":4242},
      "seed": 2024,
      "mode": "flip-low-bit"
    },
    {
      "graph": {"family":"complete","n":6},
      "compiler": {"id":"uncompiled"},
      "payload": {"kind":"token-dissemination","batch":2},
      "seed": 7,
      "mode": {"constant":9}
    }
  ]
}
"#,
    ),
    ("redteam-spec/fingerprint", r#"dc4515533e052f2e"#),
    (
        "redteam-header",
        r#"{"kind":"redteam","fingerprint":"dc4515533e052f2e","targets":2,"chains":2,"units":4}"#,
    ),
    (
        "unit",
        r#"{"kind":"unit","index":3,"target":1,"chain":1,"evals":33,"found_at":null,"fitness":{"failed_decode":false,"residual":3,"rewinds":0,"pressure":17,"congestion":6},"ce":null}"#,
    ),
    (
        "unit/counterexample",
        r#"{"kind":"unit","index":3,"target":1,"chain":1,"evals":33,"found_at":12,"fitness":{"failed_decode":true,"residual":3,"rewinds":0,"pressure":17,"congestion":6},"ce":{"spec_fingerprint":"235478a6a0f12aa5","graph":"K5","rounds":3,"schedule":[[2,5],[],[7]],"fitness":{"failed_decode":true,"residual":3,"rewinds":0,"pressure":17,"congestion":6},"shrink_evals":41}}"#,
    ),
    (
        "fitness",
        r#"{"failed_decode":true,"residual":3,"rewinds":0,"pressure":17,"congestion":6}"#,
    ),
];
const ERRORS: &[(&str, &str)] = &[
    (
        "campaign-spec/seed",
        r#"spec field `seed` missing or mistyped"#,
    ),
    (
        "campaign-spec/grid",
        r#"spec field `grid` missing or mistyped"#,
    ),
    (
        "campaign-spec/grid.compilers",
        r#"spec field `grid.compilers` missing or mistyped"#,
    ),
    (
        "campaign-spec/kind",
        r#"invalid spec: document kind is `redteam-spec`, expected `campaign-spec`"#,
    ),
    (
        "payload/source",
        r#"spec field `grid.payload.source` missing or mistyped"#,
    ),
    (
        "adversary/schedule-row-element",
        r#"spec field `adversaries[].schedule[1][]` missing or mistyped"#,
    ),
    (
        "compiler/island-element",
        r#"spec field `compilers[].partitions[].island[]` missing or mistyped"#,
    ),
    ("graph/n", r#"spec field `graphs[].n` missing or mistyped"#),
    (
        "graph/param",
        r#"spec field `graphs[].k` missing or mistyped"#,
    ),
    (
        "graph/family-label",
        r#"no graph family registered under `moebius`"#,
    ),
    (
        "mode",
        r#"spec field `adversaries[].mode` missing or mistyped"#,
    ),
    (
        "adversary/f",
        r#"spec field `adversaries[].f` missing or mistyped"#,
    ),
    (
        "adversary/schedule-row",
        r#"spec field `adversaries[].schedule[1]` missing or mistyped"#,
    ),
    (
        "compiler/seed",
        r#"spec field `compilers[].seed` missing or mistyped"#,
    ),
    (
        "compiler/packing",
        r#"spec field `compilers[].packing` missing or mistyped"#,
    ),
    (
        "compiler/ticks",
        r#"spec field `compilers[].ticks` missing or mistyped"#,
    ),
    (
        "compiler/latency-label",
        r#"no latency model registered under `warp`"#,
    ),
    (
        "compiler/crash-node",
        r#"spec field `compilers[].crashes[].node` missing or mistyped"#,
    ),
    (
        "compiler/partition-until",
        r#"spec field `compilers[].partitions[].until` missing or mistyped"#,
    ),
    (
        "payload/kind",
        r#"spec field `grid.payload.kind` missing or mistyped"#,
    ),
    (
        "cell-record/notes-metric",
        r#"spec field `cell-record.notes.metrics[]` missing or mistyped"#,
    ),
    (
        "cell-record/agrees",
        r#"spec field `cell-record.agrees` missing or mistyped"#,
    ),
    (
        "cell-record/kind",
        r#"invalid spec: not a cell-record line"#,
    ),
    (
        "cell-record/status",
        r#"invalid spec: unknown cell-record status `lost`"#,
    ),
    (
        "job-status/cells_total",
        r#"spec field `cells_total` missing or mistyped"#,
    ),
    (
        "job-status/state-label",
        r#"invalid spec: unknown job state `paused`"#,
    ),
    (
        "job-status/kind",
        r#"invalid spec: not a job-status document"#,
    ),
    ("job-list/jobs", r#"spec field `jobs` missing or mistyped"#),
    (
        "query/row-value",
        r#"spec field `value` missing or mistyped"#,
    ),
    (
        "api-error/error",
        r#"spec field `error` missing or mistyped"#,
    ),
    (
        "redteam-spec/targets-seed",
        r#"spec field `targets[0].seed` missing or mistyped"#,
    ),
    (
        "redteam-spec/search.chains",
        r#"spec field `search.chains` missing or mistyped"#,
    ),
    (
        "redteam-spec/budget",
        r#"spec field `budget` missing or mistyped"#,
    ),
    (
        "redteam-spec/strategy-label",
        r#"no search strategy registered under `anneal`"#,
    ),
    (
        "redteam-spec/target-compiler",
        r#"spec field `targets[0].compiler` missing or mistyped"#,
    ),
];
