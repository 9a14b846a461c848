//! The codec as a whole (`harness::json` and every document type on it):
//!
//! * one table-driven property test over all decodable types — round trip,
//!   canonical stability (`encode(decode(encode(x))) == encode(x)`) and
//!   "an omitted optional field reads as its documented default";
//! * hostile input — every prefix truncation and a single-byte substitution
//!   sweep of each checked-in spec, of a `cells.log` line, of each server
//!   document and of `state.json` decodes to `Ok` or a typed `Err`, never a
//!   panic;
//! * crash points of the trajectory file — a `campaign` and a `redteam`
//!   trajectory truncated at every byte offset inside their last two lines
//!   resume to exactly the one-shot bytes, both as text and through the
//!   on-disk cycle the CLIs run, crashed again after its first appended
//!   chunk.
//!
//! Exact bytes are pinned separately, in `tests/codec_pin.rs`.

use mobile_congest::campaignd::api_types::{ApiError, JobList, JobStatus, QueryResponse, QueryRow};
use mobile_congest::campaignd::store::{FsStore, Store};
use mobile_congest::campaignd::JobState;
use mobile_congest::graphs::{GraphDef, GraphFamily, PackingVersion};
use mobile_congest::harness::campaign::cell_json;
use mobile_congest::harness::report::{
    assemble, read_lines, resume_trajectory, summaries_of, trajectory_header, CellRecord,
    RecordOutcome,
};
use mobile_congest::harness::spec::{
    adversary_from_json, adversary_to_json, compiler_from_json, compiler_to_json, graph_from_json,
    graph_to_json, mode_from_json, mode_to_json, payload_from_json, payload_to_json, SpecError,
};
use mobile_congest::harness::{engine, json, Campaign, CampaignSpec, GridSpec, PayloadDef};
use mobile_congest::redteam::{
    header_line, unit_line, BudgetSpec, RedTeam, RedTeamSpec, SearchSpec, SearchStrategy,
    TargetSpec,
};
use mobile_congest::scenario::matrix::AdversaryDef;
use mobile_congest::scenario::{
    CompilerDef, CrashWindow, DropModel, LatencyModel, PartitionWindow, ScheduleDef,
};
use mobile_congest::sim::adversary::CorruptionMode;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Generators: one arbitrary value per type from a seeded stream.
// ---------------------------------------------------------------------------

/// Display-name-ish text exercising the escaper.
fn text(rng: &mut ChaCha8Rng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', '(', ')', '=', '-', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}',
        '\u{1f}', '\u{7f}', 'é', '😀', '\u{2028}', '{', '}', '[', ']', ':', ',',
    ];
    let len = rng.gen_range(0..12);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// A finite float: raw bits (any magnitude, shortest-form digits) or, when
/// those are NaN/inf, a small rational.
fn finite(rng: &mut ChaCha8Rng) -> f64 {
    let bits: u64 = rng.gen();
    let v = f64::from_bits(bits);
    if v.is_finite() && rng.gen_bool(0.5) {
        v
    } else {
        (bits % 1_000_003) as f64 / [1.0, 4.0, 7.0][(bits % 3) as usize]
    }
}

fn count(rng: &mut ChaCha8Rng) -> usize {
    match rng.gen_range(0..3) {
        0 => rng.gen_range(0..4),
        1 => rng.gen_range(0..100_000),
        _ => rng.gen::<u32>() as usize,
    }
}

fn vec_of<T>(
    rng: &mut ChaCha8Rng,
    len: std::ops::Range<usize>,
    mut item: impl FnMut(&mut ChaCha8Rng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(len);
    (0..len).map(|_| item(rng)).collect()
}

fn mode(rng: &mut ChaCha8Rng) -> CorruptionMode {
    match rng.gen_range(0..4) {
        0 => CorruptionMode::ReplaceRandom,
        1 => CorruptionMode::FlipLowBit,
        2 => CorruptionMode::Drop,
        _ => CorruptionMode::Constant(rng.gen()),
    }
}

fn graph(rng: &mut ChaCha8Rng) -> GraphDef {
    const FAMILIES: &[&str] = &[
        "complete",
        "circulant",
        "torus",
        "watts-strogatz",
        "barbell",
    ];
    const PARAMS: &[&str] = &["k", "beta", "cols", "d", "we\"ird"];
    GraphDef {
        family: GraphFamily::from_label(FAMILIES[rng.gen_range(0..FAMILIES.len())]).unwrap(),
        n: count(rng),
        params: vec_of(rng, 0..3, |rng| {
            (
                PARAMS[rng.gen_range(0..PARAMS.len())].to_string(),
                finite(rng),
            )
        }),
        seed: if rng.gen_bool(0.5) { 0 } else { rng.gen() },
    }
}

fn adversary(rng: &mut ChaCha8Rng) -> AdversaryDef {
    match rng.gen_range(0..8) {
        0 => AdversaryDef::RandomMobile { f: count(rng) },
        1 => AdversaryDef::SweepMobile { f: count(rng) },
        2 => AdversaryDef::GreedyHeaviest {
            f: count(rng),
            mode: mode(rng),
        },
        3 => AdversaryDef::AdaptiveHeaviest { f: count(rng) },
        4 => AdversaryDef::Eclipse {
            node: count(rng),
            f: count(rng),
            mode: mode(rng),
        },
        5 => AdversaryDef::Burst {
            quiet: count(rng),
            burst: count(rng),
            per_round: count(rng),
            total: count(rng),
        },
        6 => AdversaryDef::Eavesdropper { f: count(rng) },
        _ => AdversaryDef::Synthesized {
            schedule: vec_of(rng, 0..4, |rng| vec_of(rng, 0..3, count)),
            mode: mode(rng),
        },
    }
}

fn schedule(rng: &mut ChaCha8Rng) -> ScheduleDef {
    ScheduleDef {
        latency: match rng.gen_range(0..3) {
            0 => LatencyModel::Synchronous,
            1 => LatencyModel::Fixed { ticks: rng.gen() },
            _ => LatencyModel::Uniform {
                min: rng.gen(),
                max: rng.gen(),
            },
        },
        reorder_window: if rng.gen_bool(0.5) { 0 } else { rng.gen() },
        drops: if rng.gen_bool(0.5) {
            DropModel::None
        } else {
            DropModel::EveryKth { k: rng.gen() }
        },
        partitions: vec_of(rng, 0..3, |rng| PartitionWindow {
            from: rng.gen(),
            until: rng.gen(),
            island: vec_of(rng, 0..4, count),
        }),
        crashes: vec_of(rng, 0..3, |rng| CrashWindow {
            node: count(rng),
            from: rng.gen(),
            until: rng.gen(),
        }),
    }
}

fn compiler(rng: &mut ChaCha8Rng) -> CompilerDef {
    match rng.gen_range(0..10) {
        0 => CompilerDef::Uncompiled,
        1 => CompilerDef::Async {
            schedule: schedule(rng),
        },
        2 => CompilerDef::FaultFree,
        3 => CompilerDef::Clique {
            f: count(rng),
            seed: rng.gen(),
        },
        4 => CompilerDef::TreePacking {
            f: count(rng),
            trees: rng.gen_bool(0.5).then(|| count(rng)),
            seed: rng.gen(),
            packing: if rng.gen_bool(0.5) {
                PackingVersion::V1Greedy
            } else {
                PackingVersion::V2Augmented
            },
        },
        5 => CompilerDef::CycleCover { f: count(rng) },
        6 => CompilerDef::Expander {
            f: count(rng),
            k: count(rng),
            bfs_rounds: count(rng),
            seed: rng.gen(),
        },
        7 => CompilerDef::Rewind {
            f: count(rng),
            seed: rng.gen(),
        },
        8 => CompilerDef::StaticToMobile {
            t: count(rng),
            words: count(rng),
            seed: rng.gen(),
        },
        _ => CompilerDef::CongestionSensitive {
            f: count(rng),
            words: count(rng),
            seed: rng.gen(),
        },
    }
}

fn payload(rng: &mut ChaCha8Rng) -> PayloadDef {
    match rng.gen_range(0..4) {
        0 => PayloadDef::ExchangeIds,
        1 => PayloadDef::FloodBroadcast {
            source: count(rng),
            value: rng.gen(),
        },
        2 => PayloadDef::LeaderElection,
        _ => PayloadDef::TokenDissemination { batch: count(rng) },
    }
}

fn campaign_spec(rng: &mut ChaCha8Rng) -> CampaignSpec {
    CampaignSpec {
        seed: rng.gen(),
        repetitions: 1 + count(rng),
        grid: GridSpec {
            graphs: vec_of(rng, 1..4, graph),
            adversaries: vec_of(rng, 1..4, adversary),
            compilers: vec_of(rng, 1..4, compiler),
            payload: payload(rng),
        },
    }
}

/// Red-team specs are validated on decode (every target graph must build and
/// fit its payload), so their targets are drawn from buildable ones.
fn redteam_spec(rng: &mut ChaCha8Rng) -> RedTeamSpec {
    RedTeamSpec {
        search: SearchSpec {
            seed: rng.gen(),
            chains: 1 + count(rng),
            steps: 1 + count(rng),
            strategy: if rng.gen_bool(0.5) {
                SearchStrategy::Evolve
            } else {
                SearchStrategy::Greedy
            },
        },
        budget: BudgetSpec {
            f: 1 + count(rng),
            rounds: 1 + count(rng),
        },
        targets: vec_of(rng, 1..3, |rng| {
            let n = rng.gen_range(5..9);
            TargetSpec {
                graph: if rng.gen_bool(0.5) {
                    GraphDef::complete(n)
                } else {
                    GraphDef::circulant(n, 2)
                },
                compiler: compiler(rng),
                payload: match payload(rng) {
                    PayloadDef::FloodBroadcast { value, .. } => PayloadDef::FloodBroadcast {
                        source: rng.gen_range(0..n),
                        value,
                    },
                    other => other,
                },
                seed: rng.gen(),
                mode: mode(rng),
            }
        }),
    }
}

fn cell_record(rng: &mut ChaCha8Rng) -> CellRecord {
    let index = count(rng);
    CellRecord {
        index,
        graph: text(rng),
        adversary: text(rng),
        compiler: text(rng),
        repetition: rng.gen_range(0..=index.min(7)),
        seed: rng.gen(),
        outcome: match rng.gen_range(0..4) {
            0 => RecordOutcome::Skipped { error: text(rng) },
            1 => RecordOutcome::Failed { error: text(rng) },
            _ => RecordOutcome::Ok {
                payload_rounds: count(rng),
                network_rounds: count(rng),
                corrupted_edge_rounds: count(rng),
                cong_p99: finite(rng),
                cong_topk: finite(rng),
                agrees: [Some(true), Some(false), None][rng.gen_range(0..3)],
                notes_type: text(rng),
                notes: vec_of(rng, 0..4, |rng| (text(rng), finite(rng))),
            },
        },
    }
}

fn job_status(rng: &mut ChaCha8Rng) -> JobStatus {
    const STATES: [JobState; 5] = [
        JobState::Queued,
        JobState::Running,
        JobState::Done,
        JobState::Cancelled,
        JobState::Failed,
    ];
    JobStatus {
        fingerprint: text(rng),
        state: STATES[rng.gen_range(0..STATES.len())],
        cells_total: count(rng),
        cells_done: count(rng),
        executed: count(rng),
        skipped: count(rng),
        failed: count(rng),
        disagreements: count(rng),
        report_fingerprint: rng.gen_bool(0.5).then(|| text(rng)),
        error: rng.gen_bool(0.5).then(|| text(rng)),
    }
}

fn query_response(rng: &mut ChaCha8Rng) -> QueryResponse {
    QueryResponse {
        facet: text(rng),
        stat: text(rng),
        rows: vec_of(rng, 0..4, |rng| QueryRow {
            job: text(rng),
            graph: text(rng),
            adversary: text(rng),
            compiler: text(rng),
            value: finite(rng),
        }),
    }
}

// ---------------------------------------------------------------------------
// (b) The property table.
// ---------------------------------------------------------------------------

type Property = Box<dyn Fn(&mut ChaCha8Rng) -> Result<(), String>>;

/// One row of the table: draw a value, encode it, decode it back.
fn row<T: PartialEq + Debug + 'static>(
    name: &'static str,
    generate: impl Fn(&mut ChaCha8Rng) -> T + 'static,
    encode: impl Fn(&T) -> String + 'static,
    decode: impl Fn(&str) -> Result<T, SpecError> + 'static,
) -> (&'static str, Property) {
    let property = move |rng: &mut ChaCha8Rng| {
        let value = generate(rng);
        let encoded = encode(&value);
        let decoded = decode(&encoded).map_err(|e| format!("`{encoded}` does not decode: {e}"))?;
        if decoded != value {
            return Err(format!("`{encoded}` decodes to {decoded:?}, not {value:?}"));
        }
        let again = encode(&decoded);
        if again != encoded {
            return Err(format!(
                "not canonical: `{encoded}` re-encodes as `{again}`"
            ));
        }
        Ok(())
    };
    (name, Box::new(property))
}

/// Lift a per-def decoder over a parsed value to one over text.
fn over_value<T>(
    decode: fn(&json::JsonValue) -> Result<T, SpecError>,
) -> impl Fn(&str) -> Result<T, SpecError> {
    move |text| decode(&json::parse(text)?)
}

fn table() -> Vec<(&'static str, Property)> {
    vec![
        row("graph", graph, graph_to_json, over_value(graph_from_json)),
        row(
            "mode",
            mode,
            |m| mode_to_json(*m),
            over_value(mode_from_json),
        ),
        row(
            "adversary",
            adversary,
            adversary_to_json,
            over_value(adversary_from_json),
        ),
        row(
            "compiler",
            compiler,
            compiler_to_json,
            over_value(compiler_from_json),
        ),
        row(
            "payload",
            payload,
            payload_to_json,
            over_value(payload_from_json),
        ),
        row(
            "campaign-spec",
            campaign_spec,
            CampaignSpec::to_json,
            CampaignSpec::from_json,
        ),
        row(
            "redteam-spec",
            redteam_spec,
            RedTeamSpec::to_json,
            RedTeamSpec::from_json,
        ),
        row(
            "cell-record",
            cell_record,
            CellRecord::to_json,
            CellRecord::from_json,
        ),
        row(
            "job-status",
            job_status,
            JobStatus::to_json,
            JobStatus::from_json,
        ),
        row(
            "job-list",
            |rng| JobList {
                jobs: vec_of(rng, 0..3, job_status),
            },
            JobList::to_json,
            JobList::from_json,
        ),
        row(
            "query",
            query_response,
            QueryResponse::to_json,
            QueryResponse::from_json,
        ),
        row(
            "api-error",
            |rng| ApiError { error: text(rng) },
            ApiError::to_json,
            ApiError::from_json,
        ),
    ]
}

#[test]
fn every_type_round_trips_and_encodes_canonically() {
    for (name, property) in table() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0DEC);
        for case in 0..200 {
            if let Err(why) = property(&mut rng) {
                panic!("{name}, case {case}: {why}");
            }
        }
    }
}

#[test]
fn an_omitted_optional_field_reads_as_its_documented_default() {
    // (type, the document with the field omitted, the same document with
    // the default spelled out, whether the canonical encoding omits it).
    // This is the table `docs/ARCHITECTURE.md` lists per def.
    type Decode = Box<dyn Fn(&str) -> Result<String, SpecError>>;
    fn via<T: Debug>(
        decode: impl Fn(&str) -> Result<T, SpecError> + 'static,
        encode: impl Fn(&T) -> String + 'static,
    ) -> Decode {
        Box::new(move |text| decode(text).map(|v| encode(&v)))
    }
    let graph = || via(over_value(graph_from_json), graph_to_json);
    let adversary = || via(over_value(adversary_from_json), adversary_to_json);
    let compiler = || via(over_value(compiler_from_json), compiler_to_json);
    let status = || via(JobStatus::from_json, JobStatus::to_json);
    const STATUS: &str = r#"{"kind":"job-status","fingerprint":"ab","state":"done","cells_total":1,"cells_done":1,"executed":1,"skipped":0,"failed":0,"disagreements":0"#;
    let rows: Vec<(&str, Decode, String, String, bool)> = vec![
        (
            "graph seed = 0",
            graph(),
            r#"{"family":"complete","n":6}"#.into(),
            r#"{"family":"complete","n":6,"seed":0}"#.into(),
            true,
        ),
        (
            "greedy-heaviest mode = flip-low-bit (the zoo's)",
            adversary(),
            r#"{"kind":"greedy-heaviest","f":1}"#.into(),
            r#"{"kind":"greedy-heaviest","f":1,"mode":"flip-low-bit"}"#.into(),
            false,
        ),
        (
            "eclipse mode = drop (the zoo's)",
            adversary(),
            r#"{"kind":"eclipse","node":0,"f":1}"#.into(),
            r#"{"kind":"eclipse","node":0,"f":1,"mode":"drop"}"#.into(),
            false,
        ),
        (
            "synthesized mode = flip-low-bit",
            adversary(),
            r#"{"kind":"synthesized","schedule":[[1]]}"#.into(),
            r#"{"kind":"synthesized","schedule":[[1]],"mode":"flip-low-bit"}"#.into(),
            false,
        ),
        (
            "tree-packing packing = v2 (the default)",
            compiler(),
            r#"{"id":"tree-packing","f":1,"seed":5}"#.into(),
            r#"{"id":"tree-packing","f":1,"seed":5,"packing":"v2"}"#.into(),
            false,
        ),
        (
            "async schedule = synchronous, in order, no partitions, no crashes",
            compiler(),
            r#"{"id":"async"}"#.into(),
            r#"{"id":"async","reorder":0,"partitions":[],"crashes":[]}"#.into(),
            true,
        ),
        (
            "campaign-spec kind tag",
            via(CampaignSpec::from_json, CampaignSpec::to_json),
            r#"{"seed":1,"repetitions":1,"grid":{"graphs":[{"family":"complete","n":6}],"adversaries":[{"kind":"random-mobile","f":1}],"compilers":[{"id":"uncompiled"}],"payload":{"kind":"exchange-ids"}}}"#.into(),
            r#"{"kind":"campaign-spec","seed":1,"repetitions":1,"grid":{"graphs":[{"family":"complete","n":6}],"adversaries":[{"kind":"random-mobile","f":1}],"compilers":[{"id":"uncompiled"}],"payload":{"kind":"exchange-ids"}}}"#.into(),
            false,
        ),
        (
            "redteam strategy = evolve, target mode = flip-low-bit, kind tag",
            via(RedTeamSpec::from_json, RedTeamSpec::to_json),
            r#"{"search":{"seed":1,"chains":1,"steps":1},"budget":{"f":1,"rounds":1},"targets":[{"graph":{"family":"complete","n":5},"compiler":{"id":"uncompiled"},"payload":{"kind":"leader-election"},"seed":7}]}"#.into(),
            r#"{"kind":"redteam-spec","search":{"seed":1,"chains":1,"steps":1,"strategy":"evolve"},"budget":{"f":1,"rounds":1},"targets":[{"graph":{"family":"complete","n":5},"compiler":{"id":"uncompiled"},"payload":{"kind":"leader-election"},"seed":7,"mode":"flip-low-bit"}]}"#.into(),
            false,
        ),
        (
            "job-status report_fingerprint / error = none",
            status(),
            format!("{STATUS}}}"),
            format!("{STATUS},\"report_fingerprint\":null,\"error\":null}}"),
            true,
        ),
    ];
    for (name, decode, omitted, explicit, canonical_omits) in rows {
        let from_omitted = decode(&omitted).unwrap_or_else(|e| panic!("{name}: {e}"));
        let from_explicit = decode(&explicit).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(from_omitted, from_explicit, "{name}");
        if canonical_omits {
            assert_eq!(from_omitted, omitted, "{name}: canonical form omits it");
        }
    }
}

// ---------------------------------------------------------------------------
// (c) Hostile input.
// ---------------------------------------------------------------------------

/// Bytes that change a document's structure when dropped in anywhere.
const HOSTILE: &[u8] = b"\"\\{}[]:,09-.eEx \n\0";

/// `text` cut at every char boundary, and with every byte replaced in turn
/// by each of [`HOSTILE`].  (Decoders take `&str`: files and request bodies
/// are UTF-8-checked before they reach one, so only valid strings matter.)
fn mutations(text: &str) -> impl Iterator<Item = String> + '_ {
    let cuts = (0..text.len())
        .filter(|&at| text.is_char_boundary(at))
        .map(|at| text[..at].to_string());
    let substitutions = (0..text.len()).flat_map(move |at| {
        HOSTILE.iter().filter_map(move |&byte| {
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = byte;
            String::from_utf8(bytes).ok()
        })
    });
    cuts.chain(substitutions)
}

/// Run `decode` over every mutation of `text`; a panic fails the test with
/// the offending input.  Returns how many mutations still decoded.
fn survives<T>(name: &str, text: &str, decode: impl Fn(&str) -> Result<T, String>) -> usize {
    assert!(
        decode(text).is_ok(),
        "{name}: the pristine document decodes"
    );
    let mut accepted = 0;
    for mutated in mutations(text) {
        match catch_unwind(AssertUnwindSafe(|| {
            let _ = json::parse(&mutated);
            decode(&mutated).is_ok()
        })) {
            Ok(true) => accepted += 1,
            Ok(false) => {}
            Err(_) => panic!("{name}: decoding panicked on `{mutated}`"),
        }
    }
    accepted
}

fn typed<T>(decode: impl Fn(&str) -> Result<T, SpecError>) -> impl Fn(&str) -> Result<T, String> {
    move |text| decode(text).map_err(|e| e.to_string())
}

#[test]
fn mutated_documents_decode_or_fail_with_a_typed_error() {
    // Every checked-in spec, through the decoder its `kind` names.
    let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/specs");
    let mut seen = 0;
    for entry in std::fs::read_dir(specs).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        if text.contains("\"redteam-spec\"") {
            survives(&name, &text, typed(RedTeamSpec::from_json));
        } else {
            survives(&name, &text, typed(CampaignSpec::from_json));
        }
        seen += 1;
    }
    assert!(seen >= 7, "specs/ holds the checked-in specs");

    // A `cells.log` line, decoded and then summarised: whatever decodes must
    // also summarise, and `summaries_of` subtracts repetition from index.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let line = loop {
        let record = cell_record(&mut rng);
        if matches!(&record.outcome, RecordOutcome::Ok { notes, .. } if !notes.is_empty()) {
            break record.to_json();
        }
    };
    survives("cells.log line", &line, |text| {
        let record = CellRecord::from_json(text).map_err(|e| e.to_string())?;
        Ok(summaries_of([&record]).len())
    });

    // Each server document.
    let mut status = job_status(&mut rng);
    status.report_fingerprint = Some("ffee".into());
    status.error = Some("boom".into());
    survives("job-status", &status.to_json(), typed(JobStatus::from_json));
    let list = JobList {
        jobs: vec![status.clone(), status],
    };
    survives("job-list", &list.to_json(), typed(JobList::from_json));
    let mut response = query_response(&mut rng);
    response.rows.push(QueryRow {
        job: "ab".into(),
        graph: "K8".into(),
        adversary: "random-mobile".into(),
        compiler: "clique(f=1)".into(),
        value: 12.25,
    });
    survives(
        "query",
        &response.to_json(),
        typed(QueryResponse::from_json),
    );
    let error = ApiError {
        error: "no job with fingerprint `xyz`".into(),
    };
    survives("api-error", &error.to_json(), typed(ApiError::from_json));
}

#[test]
fn a_mutated_state_file_is_a_store_error_never_a_panic() {
    let dir = std::env::temp_dir().join(format!("codec-props-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FsStore::open(&dir).unwrap();
    let spec = campaign_spec(&mut ChaCha8Rng::seed_from_u64(1));
    let fp = spec.fingerprint();
    store.put_spec(&fp, &spec.to_json()).unwrap();
    store.set_state(&fp, JobState::Cancelled).unwrap();
    let state_path = dir.join("jobs").join(&fp).join("state.json");
    let pristine = std::fs::read_to_string(&state_path).unwrap();
    let accepted = survives("state.json", &pristine, |text| {
        std::fs::write(&state_path, text).unwrap();
        store
            .load_jobs()
            .map(|jobs| jobs[0].state)
            .map_err(|e| e.to_string())
    });
    assert!(accepted > 0, "trailing-whitespace variants still load");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// (d) Crash points of the trajectory file.
// ---------------------------------------------------------------------------

/// What a run of the file cycle was asked to do: `(missing, present)`.
type Asked = (Vec<usize>, usize);

/// One run of the CLIs' file cycle over `path`: open it with
/// `resume_trajectory`, append the line of each missing index (`line`)
/// chunk by chunk under the one chunk rule at one thread, and finish.
/// Returns what the run was asked to do, `(missing, present)`, and what
/// `finish` returned.
fn file_cycle(
    path: &Path,
    header: &str,
    line_kind: &str,
    total: usize,
    wanted: &[usize],
    resume: bool,
    mut line: impl FnMut(usize) -> String,
) -> Result<(Asked, Option<usize>), String> {
    let mut log = resume_trajectory(path, header, line_kind, total, wanted, resume)?;
    let asked = (log.missing().to_vec(), log.present());
    for chunk in engine::chunks(&asked.0, 1) {
        let fresh: Vec<(usize, String)> = chunk.iter().map(|&i| (i, line(i))).collect();
        log.append(&fresh)?;
    }
    Ok((asked, log.finish()?))
}

/// A scratch directory for one test's files, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("codec-props-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Truncate `one_shot` at every byte offset inside its last two lines and
/// resume from each prefix: the shared reader must keep exactly the intact
/// lines, the plan must be exactly the missing indices, and re-assembling
/// after running them must reproduce the one-shot bytes.  Then the same
/// prefix goes through the on-disk cycle: the replay cuts the line a crash
/// tore (a line without its `\n` is not durable), the run is crashed again
/// right after its first appended chunk, and the next resume must run
/// exactly the rest and leave the one-shot bytes, which holds only if each
/// append starts on a line of its own.  `run` produces the line of one
/// index (memoised: lines are pure functions of their index).
fn resumes_from_every_crash_point(
    one_shot: &str,
    header: &str,
    kinds: (&str, &str),
    fingerprint: &str,
    total: usize,
    mut run: impl FnMut(usize) -> String,
) {
    let lines: Vec<&str> = one_shot.lines().collect();
    assert_eq!(lines.len(), total + 1, "header plus one line per index");
    // Byte offset just past each line's closing brace: the line is intact
    // once that much is on disk, with or without the newline after it.
    let mut end = lines[0].len();
    let ends: Vec<usize> = lines[1..]
        .iter()
        .map(|line| {
            end += 1 + line.len();
            end
        })
        .collect();
    let mut fresh: HashMap<usize, String> = HashMap::new();
    let mut line = |index: usize| fresh.entry(index).or_insert_with(|| run(index)).clone();
    let scratch = Scratch::new(kinds.0);
    let path = scratch.0.join("trajectory.jsonl");
    let all: Vec<usize> = (0..total).collect();
    for cut in ends[total - 3] + 1..one_shot.len() {
        let intact = ends.iter().take_while(|&&end| end <= cut).count();
        let kept = read_lines(&one_shot[..cut], kinds.0, kinds.1, fingerprint).unwrap();
        assert_eq!(
            kept,
            (0..intact)
                .map(|index| (index, lines[index + 1].to_string()))
                .collect::<Vec<_>>(),
            "cut at byte {cut}"
        );
        let missing: Vec<usize> = (0..total)
            .filter(|index| kept.iter().all(|(k, _)| k != index))
            .collect();
        assert_eq!(
            missing,
            (intact..total).collect::<Vec<_>>(),
            "cut at byte {cut}: the plan is the torn tail"
        );
        let mut resumed = kept;
        for index in missing {
            resumed.push((index, line(index)));
        }
        assert_eq!(assemble(header, &resumed), one_shot, "cut at byte {cut}");

        // On disk: durable are the lines whose `\n` made it.
        std::fs::write(&path, &one_shot[..cut]).unwrap();
        let durable = ends.iter().take_while(|&&end| end < cut).count();
        let mut log = resume_trajectory(&path, header, kinds.1, total, &all, true).unwrap();
        let rest: Vec<usize> = (durable..total).collect();
        assert_eq!(
            (log.missing(), log.present()),
            (&rest[..], durable),
            "cut at byte {cut}"
        );
        let first: Vec<(usize, String)> = engine::chunks(&rest, 1)
            .next()
            .unwrap()
            .iter()
            .map(|&index| (index, line(index)))
            .collect();
        let done = durable + first.len();
        log.append(&first).unwrap();
        drop(log); // stopped before `finish`
        let (asked, _) = file_cycle(&path, header, kinds.1, total, &all, true, &mut line).unwrap();
        assert_eq!(
            asked,
            ((done..total).collect(), done),
            "cut at byte {cut}: the resume after the crash"
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            one_shot,
            "cut at byte {cut}: the file after the crash and the resume"
        );
    }
}

/// A four-cell campaign: two compilers × two repetitions on K5.
fn small_campaign_spec() -> CampaignSpec {
    CampaignSpec::from_json(
        r#"{"kind":"campaign-spec","seed":7,"repetitions":2,"grid":{
            "graphs":[{"family":"complete","n":5}],
            "adversaries":[{"kind":"random-mobile","f":1}],
            "compilers":[{"id":"uncompiled"},{"id":"clique","f":1,"seed":5}],
            "payload":{"kind":"exchange-ids"}}}"#,
    )
    .unwrap()
}

#[test]
fn a_campaign_trajectory_resumes_from_every_crash_point_of_its_tail() {
    let spec = small_campaign_spec();
    let campaign = Campaign::from_spec(&spec).unwrap().threads(1);
    let header = trajectory_header(&spec);
    let lines: Vec<(usize, String)> = campaign
        .run()
        .cells
        .iter()
        .map(|cell| (cell.index, cell_json(cell)))
        .collect();
    resumes_from_every_crash_point(
        &assemble(&header, &lines),
        &header,
        ("campaign", "cell"),
        &spec.fingerprint(),
        spec.cell_count(),
        |index| cell_json(&campaign.run_cells(&[index]).cells[0]),
    );
}

/// `resume_trajectory`, the CLIs' file cycle, over a file that also holds a
/// line for a cell past the grid and a torn tail: the stray line is dropped
/// (it used to be written back, beside a header whose `cells` count it
/// contradicted), other shards' lines stay, exactly the missing cells run,
/// and two sequential shard resumes rewrite the one-shot bytes.
#[test]
fn a_resume_drops_lines_past_the_grid_and_runs_exactly_the_missing_cells() {
    let spec = small_campaign_spec();
    let campaign = Campaign::from_spec(&spec).unwrap().threads(1);
    let (header, total) = (trajectory_header(&spec), spec.cell_count());
    let lines: Vec<(usize, String)> = campaign
        .run()
        .cells
        .iter()
        .map(|cell| (cell.index, cell_json(cell)))
        .collect();
    let one_shot = assemble(&header, &lines);
    let stray = lines[1]
        .1
        .replace("\"index\":1,", &format!("\"index\":{total},"));
    assert_ne!(stray, lines[1].1);

    let scratch = Scratch::new("resume");
    let path = scratch.0.join("t.jsonl");
    std::fs::write(
        &path,
        format!("{header}\n{}\n{stray}\n{}", lines[0].1, &lines[2].1[..20]),
    )
    .unwrap();
    let line = |i: usize| lines[i].1.clone();
    // Shard 1 of 2, then shard 0 of 2, each resuming the same file.
    for (shard, expected_missing, expected_present) in [(1, vec![1, 3], 1), (0, vec![2], 3)] {
        let wanted: Vec<usize> = (0..total).filter(|i| i % 2 == shard).collect();
        let (asked, written) =
            file_cycle(&path, &header, "cell", total, &wanted, true, line).unwrap();
        assert_eq!(asked, (expected_missing, expected_present));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, Some(text.lines().count()));
        assert!(
            !text.contains(&stray),
            "shard {shard}: the stray line stays"
        );
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), one_shot);

    // A complete file: nothing runs and nothing is rewritten.
    let wanted: Vec<usize> = (0..total).collect();
    let again = file_cycle(&path, &header, "cell", total, &wanted, true, line);
    assert_eq!(again, Ok(((Vec::new(), total), None)));
    // Without `--resume` the file is replaced, not merged.
    let fresh = file_cycle(&path, &header, "cell", total, &[0], false, line);
    assert_eq!(fresh, Ok(((vec![0], 0), Some(2))));
    // A file written for another spec is refused, naming the file, and left
    // as it is, torn tail included.
    let other = trajectory_header(&CampaignSpec {
        seed: 8,
        ..small_campaign_spec()
    });
    let torn = format!("{header}\n{}\n{}", lines[0].1, &lines[1].1[..20]);
    std::fs::write(&path, &torn).unwrap();
    let refused = file_cycle(&path, &other, "cell", total, &wanted, true, |_| {
        panic!("a foreign file must not run anything")
    })
    .unwrap_err();
    assert!(refused.contains("t.jsonl"), "{refused}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), torn);
}

#[test]
fn a_redteam_trajectory_resumes_from_every_crash_point_of_its_tail() {
    let spec = RedTeamSpec {
        search: SearchSpec {
            seed: 11,
            chains: 3,
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
    };
    let team = RedTeam::from_spec(&spec).unwrap().threads(1);
    let header = header_line(&spec);
    let lines: Vec<(usize, String)> = team
        .run()
        .iter()
        .map(|outcome| (outcome.unit, unit_line(&spec, outcome)))
        .collect();
    resumes_from_every_crash_point(
        &assemble(&header, &lines),
        &header,
        ("redteam", "unit"),
        &spec.fingerprint(),
        team.unit_count(),
        |unit| unit_line(&spec, &team.run_unit(unit)),
    );
}
