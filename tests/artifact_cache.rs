//! Acceptance tests for the campaign compile-artifact cache: cells sharing a
//! `(GraphDef, CompilerDef)` pair hit the cache across seeds and
//! adversaries, distinct defs (down to the packing version) miss, campaigns
//! of different specs share one cache without ever being served each
//! other's verdicts, and campaign reports are byte-identical with the cache
//! on or off at any thread count.

use mobile_congest::graphs::{generators, GraphDef};
use mobile_congest::harness::campaign::cell_json;
use mobile_congest::harness::{ArtifactCache, Campaign, CampaignReport, CampaignSpec};
use mobile_congest::payloads::FloodBroadcast;
use mobile_congest::scenario::matrix::{run_cell, AdversaryDef};
use mobile_congest::scenario::{
    BoxedAlgorithm, CompileArtifacts, Compiler, CompilerDef, CompilerKind, CompilerNotes, Scenario,
    ScenarioError, Uncompiled,
};
use mobile_congest::sim::network::Network;
use mobile_congest::sim::run_on_network;
use mobile_congest::sim::traffic::Output;
use proptest::prelude::*;
use std::sync::Arc;

fn e16_small_spec() -> CampaignSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/e16-small.json");
    let text = std::fs::read_to_string(path).expect("specs/e16-small.json is checked in");
    CampaignSpec::from_json(&text).expect("checked-in spec parses")
}

fn spec_of(json: &str) -> CampaignSpec {
    CampaignSpec::from_json(json).expect("inline test spec parses")
}

#[test]
fn cells_sharing_a_graph_compiler_pair_hit_the_cache() {
    // 3 graphs × 3 adversaries × 3 compilers × 2 repetitions: each of the
    // 9 (graph, compiler) pairs is looked up 6 times (3 adversaries × 2
    // seed repetitions), so exactly one miss per pair and hits for the rest
    // — including the pairs whose `prepare` fails (the clique compiler off
    // the complete graph), which cache their typed error.
    let spec = e16_small_spec();
    let campaign = Campaign::from_spec(&spec).unwrap().threads(4);
    let report = campaign.run();
    assert_eq!(report.cells.len(), 54);

    let cache = campaign
        .artifact_cache_handle()
        .expect("spec-built campaigns default to a cache");
    assert_eq!(cache.misses(), 9, "one prepare per (graph, compiler) pair");
    assert_eq!(cache.hits(), 54 - 9);
    assert_eq!(cache.len(), 9);
    assert!(cache.hit_rate() > 0.8);
}

#[test]
fn distinct_packing_versions_are_distinct_cache_entries() {
    // Same graph, same f/seed — only the packing version differs. The def
    // JSON keys must keep the two apart: v1 and v2 artifacts hold different
    // tree packings.
    let spec = spec_of(
        r#"{
  "kind": "campaign-spec",
  "seed": 11,
  "repetitions": 2,
  "grid": {
    "graphs": [{"family":"watts-strogatz","n":24,"k":6,"beta":0.2,"seed":23062}],
    "adversaries": [{"kind":"random-mobile","f":1}],
    "compilers": [
      {"id":"tree-packing","f":1,"seed":5,"packing":"v1"},
      {"id":"tree-packing","f":1,"seed":5,"packing":"v2"}
    ],
    "payload": {"kind":"flood-broadcast","source":0,"value":7}
  }
}"#,
    );
    let campaign = Campaign::from_spec(&spec).unwrap().threads(2);
    let report = campaign.run();
    assert_eq!(report.cells.len(), 4);
    assert!(report.cells.iter().all(|c| c.outcome.is_ok()));

    let cache = campaign.artifact_cache_handle().unwrap();
    assert_eq!(
        cache.misses(),
        2,
        "v1 and v2 must prepare separately, never share an entry"
    );
    assert_eq!(cache.hits(), 2);
}

const FLOOD: &str = r#"{"kind":"flood-broadcast","source":0,"value":7}"#;

/// One row of the inadmissible-input table: every `(graph, compiler)` pair of
/// the grid is one the compiler must reject — in `prepare`, or in `execute`
/// once the payload shows a width it was not configured for — with an error
/// `rejection` accepts.  However the campaign runs — cached,
/// `without_artifact_cache()` or traced (which bypasses the cache) — every
/// cell is the same typed skip with a byte-identical `cell_json` line, a cell
/// under the adversary role the compilers do not defend against (the
/// eavesdropper for the Byzantine ones, the corrupting adversary for the
/// secrecy ones) is the role mismatch and not the pair's rejection, each
/// cached cell moves exactly one cache counter, and each pair prepares
/// exactly once per cached campaign.
fn assert_inadmissible(
    graphs: &str,
    compilers: &str,
    payload: &str,
    rejection: impl Fn(&ScenarioError) -> bool,
) {
    let spec = spec_of(&format!(
        r#"{{
  "kind": "campaign-spec",
  "seed": 3,
  "repetitions": 2,
  "grid": {{
    "graphs": [{graphs}],
    "adversaries": [{{"kind":"random-mobile","f":1}}, {{"kind":"eavesdropper","f":2}}],
    "compilers": [{compilers}],
    "payload": {payload}
  }}
}}"#
    ));
    let secrecy = |def: &CompilerDef| Compiler::kind(def) == CompilerKind::Secure;
    let secrecy_row = spec.grid.compilers.iter().all(secrecy);
    assert!(secrecy_row || !spec.grid.compilers.iter().any(secrecy));
    let pairs = spec.grid.graphs.len() * spec.grid.compilers.len();
    let lines =
        |report: &CampaignReport| -> Vec<String> { report.cells.iter().map(cell_json).collect() };

    // Cached, one cell per call (how the bench replays a campaign).
    let campaign = Campaign::from_spec(&spec).unwrap().threads(1);
    let cache = Arc::clone(campaign.artifact_cache_handle().unwrap());
    let cached = CampaignReport::merged((0..spec.cell_count()).map(|index| {
        let before = cache.hits() + cache.misses();
        let report = campaign.run_cells(&[index]);
        assert_eq!(cache.hits() + cache.misses(), before + 1, "cell {index}");
        report
    }));
    assert_eq!(cache.misses(), pairs as u64);

    assert_eq!(cached.cells.len(), spec.cell_count());
    assert_eq!(cached.skipped_count(), spec.cell_count());
    for cell in &cached.cells {
        let error = cell.outcome.as_ref().unwrap_err();
        if (cell.adversary == "eavesdropper") != secrecy_row {
            assert!(
                matches!(error, ScenarioError::RoleMismatch { .. }),
                "{}/{}: {error:?}",
                cell.graph,
                cell.compiler
            );
        } else {
            assert!(
                rejection(error),
                "{}/{}: {error:?}",
                cell.graph,
                cell.compiler
            );
        }
    }

    let uncached = Campaign::from_spec(&spec)
        .unwrap()
        .without_artifact_cache()
        .threads(2)
        .run();
    let traced = Campaign::from_spec(&spec)
        .unwrap()
        .trace(mobile_congest::obs::TraceSpec::ring())
        .threads(2)
        .run();
    for (how, report) in [("uncached", &uncached), ("traced", &traced)] {
        assert_eq!(lines(report), lines(&cached), "{how} run diverged");
        assert_eq!(report.fingerprint(), cached.fingerprint(), "{how} run");
    }
}

#[test]
fn a_graph_beyond_the_16_bit_arc_ids_is_a_skipped_cell_cache_or_not() {
    // K258 has 66 306 arcs; the correction sketches address 65 536.  Specs
    // carry no size cap, so this used to pass `build()` and panic in the
    // worker (`arc id 66304 exceeds 16 bits`) once the adversary touched a
    // high arc.
    assert_inadmissible(
        r#"{"family":"complete","n":258}"#,
        r#"{"id":"clique","f":1,"seed":5}"#,
        FLOOD,
        |e| matches!(e, ScenarioError::UnsupportedGraph { reason, .. } if reason.contains("66306")),
    );
}

#[test]
fn disconnected_graphs_are_skipped_cells_not_a_packing_panic_under_the_shard_lock() {
    // Both generators give a disconnected graph at this seed.  The cached
    // path used to call `prepare` — `greedy_low_depth_packing` asserts
    // connectivity — before anything judged the graph, while `--no-cache`
    // gave the typed skip.  (The payload is `exchange-ids`: a flooding one is
    // refused on a disconnected graph by `from_spec` already.)
    assert_inadmissible(
        r#"{"family":"expander-d-regular","n":24,"d":2,"seed":2},
           {"family":"watts-strogatz","n":24,"k":2,"beta":0.9,"seed":2}"#,
        r#"{"id":"tree-packing","f":1,"seed":5,"packing":"v1"},
           {"id":"tree-packing","f":1,"seed":5,"packing":"v2"},
           {"id":"rewind","f":1,"seed":5},
           {"id":"cycle-cover","f":1}"#,
        r#"{"kind":"exchange-ids"}"#,
        |e| {
            matches!(
                e,
                ScenarioError::InsufficientConnectivity {
                    needed: 3,
                    found: 0,
                    ..
                }
            )
        },
    );
}

#[test]
fn parameter_floors_are_skipped_cells_not_constructor_panics() {
    // `trees: 0` hit `k must be positive` in the packing constructor and
    // `k: 0` an empty `gen_range` in the under-attack packing, cache on or off.
    assert_inadmissible(
        r#"{"family":"circulant","n":18,"k":4}, {"family":"complete","n":12}"#,
        r#"{"id":"tree-packing","f":1,"trees":0,"seed":5},
           {"id":"expander","f":1,"k":0,"bfs_rounds":6,"seed":5}"#,
        FLOOD,
        |e| matches!(e, ScenarioError::InvalidParameter { .. }),
    );
}

#[test]
fn a_payload_word_past_the_sketch_lane_is_a_skipped_cell_not_a_silent_truncation() {
    // 2^41 + 5 does not fit the 40-bit content lane of a sketch element.  The
    // correction used to mask the sent word to `5` and "correct" receivers
    // to the wrong value: half the executed cells read `"agrees":false` with
    // nothing saying why.  `prepare` cannot see the payload, so the rejection
    // comes out of `execute`, at the first sent round.
    assert_inadmissible(
        r#"{"family":"complete","n":12}"#,
        r#"{"id":"clique","f":1,"seed":5}, {"id":"tree-packing","f":1,"seed":5}"#,
        r#"{"kind":"flood-broadcast","source":0,"value":2199023255557}"#,
        |e| {
            matches!(e, ScenarioError::InvalidParameter { reason, .. }
                if reason.contains("0x20000000005") && reason.contains("40-bit lane"))
        },
    );
}

#[test]
fn a_payload_wider_than_a_secrecy_compilers_words_is_a_skipped_cell_not_a_width_assert() {
    // Token dissemination at batch 2 sends 2-word messages; `words: 1`
    // provisions keystream for one.  `prepare` cannot see the payload, so
    // the rejection comes out of `execute` — it used to be the assert in
    // `CongestionSensitiveCompiler::run` / `KeyPool::apply`, exit 101.
    assert_inadmissible(
        r#"{"family":"complete","n":8}"#,
        r#"{"id":"congestion-sensitive","f":1,"words":1,"seed":5},
           {"id":"static-to-mobile","t":4,"words":1,"seed":5}"#,
        r#"{"kind":"token-dissemination","batch":2}"#,
        |e| {
            matches!(e, ScenarioError::InvalidParameter { reason, .. }
                if reason.contains("2-word") && reason.contains("words_per_message = 1"))
        },
    );
}

#[test]
fn a_key_schedule_past_gf_2_16_is_a_skipped_cell_not_a_field_expect() {
    // `ℓ = r + t` exchange rounds need `ℓ` distinct non-zero points of
    // GF(2^16): `t: 65536`, or `f: 40000` under congestion-sensitive
    // (`t = 2·f·r`), used to hit the `expect` in `KeyPool::establish`, exit
    // 101.  `r` is the payload's round count, so only `execute` can tell.
    assert_inadmissible(
        r#"{"family":"complete","n":4}"#,
        r#"{"id":"static-to-mobile","t":65536,"words":1,"seed":5},
           {"id":"congestion-sensitive","f":40000,"words":1,"seed":5}"#,
        FLOOD,
        |e| {
            matches!(e, ScenarioError::InvalidParameter { reason, .. }
                if reason.contains("exchange rounds") && reason.contains("GF(2^16)"))
        },
    );
}

#[test]
fn congestion_sensitive_on_a_disconnected_graph_is_a_skipped_cell_not_a_packing_panic() {
    // The secure broadcast's tree packing asserts a connected graph; it was
    // built inside `execute`, past every check.  (`exchange-ids` is a payload
    // that itself accepts a disconnected graph.)
    assert_inadmissible(
        r#"{"family":"expander-d-regular","n":24,"d":2,"seed":2}"#,
        r#"{"id":"congestion-sensitive","f":1,"words":2,"seed":5}"#,
        r#"{"kind":"exchange-ids"}"#,
        |e| matches!(e, ScenarioError::UnsupportedGraph { reason, .. } if reason.contains("connected")),
    );
}

#[test]
fn shared_cache_carries_across_campaign_runs() {
    // The campaignd usage: one cache attached to several spec-built
    // campaigns (daemon batches) — the second run's preparations are all
    // hits.
    let spec = e16_small_spec();
    let shared = std::sync::Arc::new(ArtifactCache::new());
    let first = Campaign::from_spec(&spec)
        .unwrap()
        .artifact_cache(std::sync::Arc::clone(&shared))
        .threads(2);
    let second = Campaign::from_spec(&spec)
        .unwrap()
        .artifact_cache(std::sync::Arc::clone(&shared))
        .threads(2);
    let a = first.run();
    let misses_after_first = shared.misses();
    let b = second.run();
    assert_eq!(misses_after_first, 9);
    assert_eq!(shared.misses(), 9, "second campaign prepares nothing");
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn campaigns_of_different_specs_share_one_cache_without_crosstalk() {
    // The daemon shares one cache across jobs.  Keys come from the defs each
    // campaign runs, so two grids over different graphs get their own
    // verdicts: back to back on one cache, in either order, the bytes equal
    // each spec run alone.  (With the old axis setters, a campaign could run
    // K6 under circ(10,2)'s key and the next job read K6's artifacts there.)
    let e16 = e16_small_spec();
    let mut other = e16.clone();
    other.seed = 7;
    other.grid.graphs = vec![GraphDef::torus(3, 4), GraphDef::complete(6)];
    let alone = |spec: &CampaignSpec| Campaign::from_spec(spec).unwrap().threads(2).run();
    let expected = [alone(&e16).to_jsonl(), alone(&other).to_jsonl()];
    for order in [[0, 1], [1, 0]] {
        let shared = Arc::new(ArtifactCache::new());
        for i in order {
            let spec = [&e16, &other][i];
            let report = Campaign::from_spec(spec)
                .unwrap()
                .artifact_cache(Arc::clone(&shared))
                .threads(2)
                .run();
            assert_eq!(report.to_jsonl(), expected[i], "spec {i} after {order:?}");
        }
        // torus3x4 is in both grids: 4 distinct graphs × 3 compilers.
        assert_eq!(shared.len(), 12);
    }
}

#[test]
fn traced_campaigns_bypass_the_cache() {
    // `prepare` emits packing spans into the cell event stream; a cache hit
    // would elide them from all but the first cell, so traced runs must not
    // consult the cache at all — and their fingerprints must still match
    // between a defaulted and an explicitly disabled cache.
    let spec = e16_small_spec();
    let campaign = Campaign::from_spec(&spec)
        .unwrap()
        .threads(2)
        .trace(mobile_congest::obs::TraceSpec::ring());
    let traced = campaign.run();
    let cache = campaign.artifact_cache_handle().unwrap();
    assert_eq!(cache.hits() + cache.misses(), 0, "no lookups while tracing");

    let untouched = Campaign::from_spec(&spec)
        .unwrap()
        .threads(2)
        .without_artifact_cache()
        .trace(mobile_congest::obs::TraceSpec::ring())
        .run();
    assert_eq!(traced.fingerprint(), untouched.fingerprint());
}

/// A compiler written against the public trait alone: `name`, `kind` and the
/// one required run method (`prepare` is the accept-everything default).
struct ThirdParty;

impl Compiler for ThirdParty {
    fn name(&self) -> String {
        "third-party".into()
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::Baseline
    }
    fn execute(
        &self,
        _artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        Ok((run_on_network(&mut *make(), net), CompilerNotes::None))
    }
}

#[test]
fn a_compiler_implementing_only_execute_runs_through_scenario_and_the_cache() {
    let g = generators::torus(3, 4);
    let gg = g.clone();
    let report = Scenario::on(g.clone())
        .payload(move || FloodBroadcast::new(gg.clone(), 0, 9))
        .compiled_with(ThirdParty)
        .run()
        .unwrap();
    assert_eq!(report.compiler, "third-party");
    assert_eq!(report.agrees_with_fault_free(), Some(true));

    // Its default `prepare` is a verdict like any other: cached once, handed
    // to every cell of the pair, and each cell comes out exactly as the
    // baseline's does.
    let cache = ArtifactCache::new();
    let adversary = AdversaryDef::RandomMobile { f: 1 };
    let flood = |g: &mobile_congest::graphs::Graph| {
        Box::new(FloodBroadcast::new(g.clone(), 0, 9)) as BoxedAlgorithm
    };
    let off = mobile_congest::obs::TraceSpec::off();
    for seed in 0..3 {
        let verdict = cache.prepare_with("torus3x4\nthird-party", &ThirdParty, &g);
        let run = run_cell(
            &g,
            &adversary,
            Box::new(ThirdParty),
            flood,
            seed,
            off,
            Some(verdict),
        );
        let base = run_cell(&g, &adversary, Box::new(Uncompiled), flood, seed, off, None);
        let (run, base) = (run.unwrap(), base.unwrap());
        assert_eq!(run.outputs, base.outputs);
        assert_eq!(run.metrics, base.metrics);
    }
    assert_eq!((cache.misses(), cache.hits()), (1, 2));
}

/// The determinism contract of the tentpole, checked for one campaign seed:
/// the report fingerprint is byte-identical with the cache on or off, at 1,
/// 2 and 8 worker threads.
fn assert_cache_is_transparent(seed: u64) {
    let mut spec = e16_small_spec();
    spec.seed = seed;
    let reference = Campaign::from_spec(&spec)
        .unwrap()
        .without_artifact_cache()
        .threads(1)
        .run();
    for threads in [1usize, 2, 8] {
        let cached = Campaign::from_spec(&spec).unwrap().threads(threads).run();
        assert_eq!(
            cached.fingerprint(),
            reference.fingerprint(),
            "cached run diverged at {threads} threads (campaign seed {seed})"
        );
        let uncached = Campaign::from_spec(&spec)
            .unwrap()
            .without_artifact_cache()
            .threads(threads)
            .run();
        assert_eq!(
            uncached.fingerprint(),
            reference.fingerprint(),
            "uncached run diverged at {threads} threads (campaign seed {seed})"
        );
    }
}

proptest! {
    // Each case runs seven full campaigns, so keep the case count modest;
    // the seeds vary the whole per-cell RNG story (adversary choices, key
    // schedules, corruption draws).
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cached_and_uncached_reports_are_byte_identical(seed in any::<u32>()) {
        assert_cache_is_transparent(seed as u64);
    }
}
