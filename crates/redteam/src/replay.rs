//! The replay script of a minimized counterexample: where the synthesized
//! schedule struck and what it broke, round by round.

use congest_sim::scenario::RunReport;
use mobile_congest_harness::json;
use obs::{EventClass, EventKind};

/// Render a **traced** run as a human-auditable replay script: one JSONL
/// header line, one `kind:"round"` line per network round the adversary
/// touched (grouping the trace's corruption events by virtual time), and a
/// closing `kind:"verdict"` line with the correction outcome.
///
/// This is the replay artifact the shrinker emits next to each minimal
/// counterexample spec: the spec replays the failure through the campaign
/// engine, and this script shows *where* the synthesized schedule struck and
/// what it broke.  The run must have been executed with ring tracing
/// ([`obs::TraceSpec::ring`]) — an untraced report produces a script with no
/// round lines.
pub fn replay_trace_jsonl(report: &RunReport) -> String {
    let metric = |name: &str| -> u64 {
        report
            .notes
            .metrics()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v as u64)
            .unwrap_or(0)
    };

    let mut out = String::new();
    json::write_object(&mut out, |w| {
        w.str("kind", "replay")
            .str("adversary", &report.adversary)
            .str("compiler", &report.compiler)
            .u64("payload_rounds", report.payload_rounds as u64)
            .u64("network_rounds", report.network_rounds as u64)
            .u64(
                "corruption_events",
                report.trace.class_count(EventClass::Corruption) as u64,
            );
    });
    out.push('\n');
    // Group the trace's corruption points by virtual time (events arrive in
    // time order, so one forward pass suffices), then run-length collapse
    // consecutive rounds that hit the same edge set — a cyclic synthesized
    // schedule corrupts identically for thousands of network rounds, and one
    // `"to"`-spanned line per streak keeps the script readable.
    let mut rounds: Vec<(u64, Vec<usize>)> = Vec::new();
    for ev in &report.trace.events {
        let EventKind::CorruptionApplied { edge } = ev.kind else {
            continue;
        };
        match rounds.last_mut() {
            Some((t, edges)) if *t == ev.time => edges.push(edge),
            _ => rounds.push((ev.time, vec![edge])),
        }
    }
    let mut i = 0;
    while i < rounds.len() {
        let (from, edges) = (rounds[i].0, &rounds[i].1);
        let mut j = i + 1;
        while j < rounds.len() && rounds[j].0 == rounds[j - 1].0 + 1 && rounds[j].1 == *edges {
            j += 1;
        }
        json::write_object(&mut out, |w| {
            w.str("kind", "round")
                .u64("round", from)
                .u64("to", rounds[j - 1].0)
                .usizes("edges", edges);
        });
        out.push('\n');
        i = j;
    }
    json::write_object(&mut out, |w| {
        w.str("kind", "verdict")
            .opt_bool("agrees", report.agrees_with_fault_free())
            .opt_bool("corrected", report.notes.fully_corrected())
            .u64("mismatches_after", metric("mismatches_after"))
            .u64("failed_trees", metric("failed_trees"))
            .u64(
                "rewinds",
                report.trace.class_count(EventClass::Rewind) as u64,
            );
    });
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::ResolvedTarget;
    use crate::schedule::SynthesizedAdversary;
    use crate::spec::TargetSpec;
    use congest_sim::adversary::CorruptionMode;
    use congest_sim::network::Network;
    use congest_sim::scenario::matrix::run_cell;
    use congest_sim::scenario::{
        BoxedAlgorithm, CompileArtifacts, Compiler, CompilerKind, CompilerNotes, ScenarioError,
        Uncompiled,
    };
    use congest_sim::traffic::Output;
    use mobile_congest_core::adapters::CompilerDef;
    use mobile_congest_harness::spec::PayloadDef;
    use netgraph::{Graph, GraphDef};

    fn target() -> ResolvedTarget {
        ResolvedTarget::resolve(&TargetSpec {
            graph: GraphDef::circulant(8, 1),
            compiler: CompilerDef::Uncompiled,
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 99,
            },
            seed: 3,
            mode: CorruptionMode::FlipLowBit,
        })
        .unwrap()
    }

    fn attack() -> SynthesizedAdversary {
        SynthesizedAdversary::new(
            vec![vec![0], vec![0], vec![2, 5]],
            CorruptionMode::FlipLowBit,
        )
    }

    #[test]
    fn an_ordinary_failing_run_renders_the_pinned_script() {
        // Captured from the hand-formatted encoder this one replaced: same
        // bytes, including the run-length collapsed first streak.
        let report = target().run_traced(&attack()).unwrap();
        assert_eq!(report.agrees_with_fault_free(), Some(false));
        assert_eq!(
            replay_trace_jsonl(&report),
            concat!(
                r#"{"kind":"replay","adversary":"synthesized(r=3,f=2)","compiler":"uncompiled","payload_rounds":4,"network_rounds":4,"corruption_events":5}"#,
                "\n",
                r#"{"kind":"round","round":0,"to":1,"edges":[0]}"#,
                "\n",
                r#"{"kind":"round","round":2,"to":2,"edges":[2,5]}"#,
                "\n",
                r#"{"kind":"round","round":3,"to":3,"edges":[0]}"#,
                "\n",
                r#"{"kind":"verdict","agrees":false,"corrected":null,"mismatches_after":0,"failed_trees":0,"rewinds":0}"#,
                "\n",
            )
        );
    }

    /// The uncompiled baseline under a name no built-in compiler would pick.
    struct Weird;

    impl Compiler for Weird {
        fn name(&self) -> String {
            "we\"ird\\".into()
        }
        fn kind(&self) -> CompilerKind {
            Uncompiled.kind()
        }
        fn execute(
            &self,
            artifacts: &CompileArtifacts,
            make: &dyn Fn() -> BoxedAlgorithm,
            net: &mut Network,
        ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
            Uncompiled.execute(artifacts, make, net)
        }
    }

    #[test]
    fn a_quote_bearing_compiler_name_still_yields_parseable_lines() {
        let target = target();
        let payload = target.payload.clone();
        let report = run_cell(
            &target.graph,
            &attack().def(),
            Box::new(Weird),
            move |g: &Graph| payload.build(g),
            7,
            obs::TraceSpec::ring(),
            None,
        )
        .unwrap();
        let script = replay_trace_jsonl(&report);
        assert!(script.lines().count() >= 3, "header, rounds, verdict");
        for line in script.lines() {
            json::parse(line).unwrap_or_else(|e| panic!("unparseable replay line `{line}`: {e}"));
        }
        let header = json::parse(script.lines().next().unwrap()).unwrap();
        assert_eq!(
            json::Reader::new(&header, "").str("compiler").unwrap(),
            "we\"ird\\"
        );
    }
}
