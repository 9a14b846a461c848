//! Trace determinism (`crates/obs` through the whole stack): traced event
//! streams are byte-identical at any campaign thread count and any async
//! host count, same-seed reruns reproduce them exactly, and every span that
//! opens closes.
//!
//! Wall-clock durations are out-of-band by design — these tests compare
//! event streams, digests and span counts, never nanoseconds.

use mobile_congest::graphs::{generators, GraphDef};
use mobile_congest::harness::campaign::CampaignReport;
use mobile_congest::harness::json::fnv1a_hex;
use mobile_congest::harness::{Campaign, CampaignSpec, GridSpec, PayloadDef};
use mobile_congest::obs;
use mobile_congest::payloads::FloodBroadcast;
use mobile_congest::scenario::matrix::AdversaryDef;
use mobile_congest::scenario::{AsyncExecutor, CompilerDef, LatencyModel, Scenario, ScheduleDef};
use mobile_congest::sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};

/// A small traced campaign crossing all span-emitting compiler families.
fn traced_campaign(threads: usize) -> CampaignReport {
    let spec = CampaignSpec {
        seed: 99,
        repetitions: 2,
        grid: GridSpec {
            graphs: vec![GraphDef::complete(8), GraphDef::circulant(10, 2)],
            adversaries: vec![
                AdversaryDef::RandomMobile { f: 1 },
                AdversaryDef::Eavesdropper { f: 1 },
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
                CompilerDef::Rewind { f: 1, seed: 5 },
            ],
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 4242,
            },
        },
    };
    Campaign::from_spec(&spec)
        .unwrap()
        .threads(threads)
        .trace(obs::TraceSpec::ring())
        .run()
}

/// The concatenated per-cell event streams — the bytes `--trace-dir` writes.
fn event_bytes(report: &CampaignReport) -> String {
    let mut out = String::new();
    for cell in &report.cells {
        if let Ok(r) = &cell.outcome {
            out.push_str(&format!("# cell {}\n", cell.index));
            let mut buf = Vec::new();
            r.trace.write_jsonl(&mut buf).unwrap();
            out.push_str(&String::from_utf8(buf).unwrap());
        }
    }
    out
}

#[test]
fn traced_campaign_is_byte_identical_across_thread_counts() {
    let single = traced_campaign(1);
    let double = traced_campaign(2);
    let eight = traced_campaign(8);
    // The fingerprint covers each cell's trace via its digest + stats.
    assert_eq!(single.fingerprint(), double.fingerprint());
    assert_eq!(single.fingerprint(), eight.fingerprint());
    // And the raw streams agree byte-for-byte, not just by digest.
    let bytes = event_bytes(&single);
    assert!(!bytes.is_empty());
    assert_eq!(bytes, event_bytes(&double));
    assert_eq!(bytes, event_bytes(&eight));
}

/// The tests around this one compare traces with themselves (thread counts,
/// reruns); this one compares with the past.  Both literals were captured at
/// the commit before scheduled rounds became pattern rounds (the parent of
/// PR 19), so a round that drops a `RoundExchange` span, a
/// `CorruptionApplied` point or a clock tick — in a clique or tree-packing
/// cell's scheduler rounds, say — is a diff here, not a silent change.
#[test]
fn traced_campaign_report_is_golden() {
    let report = traced_campaign(1);
    // Every cell's outcome, trace digest and trace stats.
    assert_eq!(
        fnv1a_hex(report.fingerprint().bytes()),
        "1fe1553d03311995",
        "traced campaign report drifted"
    );
    // The raw event streams, as `--trace-dir` would write them.
    let bytes = event_bytes(&report);
    assert_eq!(bytes.len(), 373_566);
    assert_eq!(
        fnv1a_hex(bytes.bytes()),
        "4e7b628cd869b160",
        "traced event streams drifted"
    );
}

/// The cycle-cover compiler's flood rounds, traced: every adversary family of
/// the zoo against `cycle-cover(f=1)` on three covered graphs.  The
/// trajectory lines do not carry `messages`, `words` or `edge_messages`, but
/// the report fingerprint does (it is the cells' `Debug` form, `Metrics`
/// included), so a flood round that charges its traffic volume differently is
/// a diff here.  Both literals were captured at the commit before flood rounds
/// stopped copying the relays' held traffic into a second buffer every round.
#[test]
fn traced_cycle_cover_campaign_is_golden() {
    let spec = CampaignSpec {
        seed: 41,
        repetitions: 2,
        grid: GridSpec {
            graphs: vec![
                GraphDef::complete(8),
                GraphDef::circulant(10, 2),
                GraphDef::torus(3, 4),
            ],
            adversaries: mobile_congest::scenario::matrix::adversary_zoo_defs(1),
            compilers: vec![CompilerDef::CycleCover { f: 1 }],
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 4242,
            },
        },
    };
    let report = Campaign::from_spec(&spec)
        .unwrap()
        .threads(1)
        .trace(obs::TraceSpec::ring())
        .run();
    assert_eq!(
        fnv1a_hex(report.fingerprint().bytes()),
        "ba3ee687da1aee99",
        "traced cycle-cover report drifted"
    );
    let bytes = event_bytes(&report);
    assert_eq!(bytes.len(), 1_255_510);
    assert_eq!(
        fnv1a_hex(bytes.bytes()),
        "73ce1e89f13f33da",
        "traced cycle-cover event streams drifted"
    );
}

#[test]
fn same_seed_rerun_reproduces_the_trace_exactly() {
    let a = traced_campaign(4);
    let b = traced_campaign(4);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(event_bytes(&a), event_bytes(&b));
}

#[test]
fn every_opened_span_is_closed_in_every_cell() {
    let report = traced_campaign(2);
    let mut executed = 0;
    for cell in &report.cells {
        let Ok(r) = &cell.outcome else { continue };
        executed += 1;
        assert_eq!(
            r.trace.stats.unclosed, 0,
            "cell {} ({}) left spans open",
            cell.index, cell.compiler
        );
        assert_eq!(
            r.trace.stats.mismatched, 0,
            "cell {} ({}) closed spans out of order",
            cell.index, cell.compiler
        );
        // Bracketing also holds inside the retained stream itself.
        let opens = r
            .trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::SpanOpen(_)))
            .count();
        let closes = r
            .trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::SpanClose(_)))
            .count();
        assert_eq!(opens, closes, "cell {} stream unbalanced", cell.index);
    }
    assert!(executed > 0, "the grid must execute some cells");
}

#[test]
fn traced_profile_counts_are_deterministic_but_wall_time_is_out_of_band() {
    let a = traced_campaign(1);
    let b = traced_campaign(8);
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        let (Ok(ra), Ok(rb)) = (&ca.outcome, &cb.outcome) else {
            continue;
        };
        // Span *counts* agree exactly; wall nanos are not compared (and the
        // Debug form the fingerprint uses never prints them).
        for phase in obs::Phase::ALL {
            assert_eq!(
                ra.trace.profile.count(phase),
                rb.trace.profile.count(phase),
                "cell {} phase {}",
                ca.index,
                phase.name()
            );
        }
        assert_eq!(
            format!("{:?}", ra.trace.profile),
            format!("{:?}", rb.trace.profile)
        );
        assert!(!format!("{:?}", ra.trace.profile).contains("ns"));
    }
}

/// Async executor traces: byte-identical at 1, 2 and 8 host threads, with
/// slot events on the virtual tick clock.
#[test]
fn async_trace_is_byte_identical_across_host_counts() {
    let g = generators::circulant(10, 2);
    let schedule = ScheduleDef::synchronous()
        .with_latency(LatencyModel::Uniform { min: 0, max: 3 })
        .with_reorder_window(2);
    let run_with = |hosts: usize| {
        let payload_graph = g.clone();
        Scenario::on(g.clone())
            .payload(move || FloodBroadcast::new(payload_graph.clone(), 0, 7))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(1, 3),
                CorruptionBudget::Mobile { f: 1 },
            )
            .seed(3)
            .trace(obs::TraceSpec::ring())
            .compiled_with(AsyncExecutor::new(schedule.clone()).with_hosts(hosts))
            .run()
            .unwrap()
    };
    let one = run_with(1);
    let two = run_with(2);
    let eight = run_with(8);
    let jsonl = |r: &mobile_congest::scenario::RunReport| {
        let mut buf = Vec::new();
        r.trace.write_jsonl(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    };
    let reference = jsonl(&one);
    assert!(
        reference.contains("slot_delivered") && reference.contains("slot_delayed"),
        "the jittery schedule must emit slot events"
    );
    assert_eq!(reference, jsonl(&two), "2 hosts diverged");
    assert_eq!(reference, jsonl(&eight), "8 hosts diverged");
    assert_eq!(one.trace.stats.unclosed, 0);
}

/// Crash windows emit paired crash/recover events even though idle ticks are
/// skipped by the scheduler.
#[test]
fn async_crash_windows_emit_crash_and_recover_events() {
    let g = generators::grid(3, 3);
    let payload_graph = g.clone();
    let report = Scenario::on(g)
        .payload(move || FloodBroadcast::new(payload_graph.clone(), 0, 5))
        .trace(obs::TraceSpec::ring())
        .compiled_with(AsyncExecutor::new(ScheduleDef::synchronous().with_crash(
            mobile_congest::scenario::CrashWindow {
                node: 4,
                from: 1,
                until: 5,
            },
        )))
        .run()
        .unwrap();
    let crashes = report
        .trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, obs::EventKind::NodeCrash { node: 4 }))
        .count();
    let recovers = report
        .trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, obs::EventKind::NodeRecover { node: 4 }))
        .count();
    assert_eq!(crashes, 1);
    assert_eq!(recovers, 1);
    assert_eq!(report.trace.stats.unclosed, 0);
}

/// The tracing default is off, and an untraced report carries an empty
/// profile and no events — the zero-overhead configuration.
#[test]
fn untraced_runs_carry_no_events_and_empty_profiles() {
    let g = generators::complete(8);
    let payload_graph = g.clone();
    let report = Scenario::on(g)
        .payload(move || FloodBroadcast::new(payload_graph.clone(), 0, 1))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(1, 2),
            CorruptionBudget::Mobile { f: 1 },
        )
        .seed(2)
        .compiled_with(CompilerDef::Clique { f: 1, seed: 5 })
        .run()
        .unwrap();
    assert!(report.trace.events.is_empty());
    assert!(report.trace.profile.is_empty());
    assert_eq!(report.trace.stats.offered, 0);
    assert!(report.profile().is_empty());
}
