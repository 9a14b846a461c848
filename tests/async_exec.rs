//! Acceptance tests for the asynchronous execution runtime at the umbrella
//! level: the parity contract (the async executor on the zero-delay in-order
//! schedule reproduces the lockstep engine byte-for-byte across the whole
//! topology × adversary zoo grid) and the determinism property (the report is
//! a pure function of the schedule and the seed — host thread count and
//! repetition never change a byte).

use mobile_congest::graphs::Graph;
use mobile_congest::obs::TraceSpec;
use mobile_congest::payloads::FloodBroadcast;
use mobile_congest::scenario::matrix::{self, run_cell};
use mobile_congest::scenario::{
    AsyncExecutor, BoxedAlgorithm, CrashWindow, LatencyModel, ScheduleDef, Uncompiled,
};
use proptest::prelude::*;

fn payload(g: &Graph) -> BoxedAlgorithm {
    Box::new(FloodBroadcast::new(g.clone(), 0, 77))
}

/// One stable per-cell seed per zoo coordinate; any mixing works, it only
/// has to be the same for the lockstep and the async run.
fn zoo_seed(gi: usize, ai: usize) -> u64 {
    0x5EED ^ ((gi as u64) << 16) ^ ai as u64
}

/// The tentpole's acceptance criterion: on `ScheduleDef::synchronous()` the
/// async executor and the lockstep round engine produce identical outputs,
/// identical metrics (including the corruption counters fed by the
/// adversary's per-round history) and identical eavesdropper views, for
/// every topology in the zoo under every adversary in the zoo.
#[test]
fn synchronous_async_matches_lockstep_across_the_zoo_grid() {
    let graphs = matrix::graph_zoo_defs(42);
    let adversaries = matrix::adversary_zoo_defs(1);
    let mut compared = 0usize;
    for (gi, gdef) in graphs.iter().enumerate() {
        let graph = gdef.build().expect("zoo defs are valid");
        for (ai, adversary) in adversaries.iter().enumerate() {
            let seed = zoo_seed(gi, ai);
            let lockstep = run_cell(
                &graph,
                adversary,
                Box::new(Uncompiled),
                payload,
                seed,
                TraceSpec::off(),
                None,
            )
            .expect("uncompiled zoo cells always validate");
            let asynchronous = run_cell(
                &graph,
                adversary,
                Box::new(AsyncExecutor::new(ScheduleDef::synchronous())),
                payload,
                seed,
                TraceSpec::off(),
                None,
            )
            .expect("the synchronous schedule validates everywhere");

            let at = format!("{} x {}", gdef.display_name(), adversary.display_name());
            assert_eq!(asynchronous.outputs, lockstep.outputs, "outputs at {at}");
            assert_eq!(
                format!("{:?}", asynchronous.metrics),
                format!("{:?}", lockstep.metrics),
                "metrics at {at}"
            );
            assert_eq!(
                format!("{:?}", asynchronous.view),
                format!("{:?}", lockstep.view),
                "eavesdropper view at {at}"
            );
            assert_eq!(asynchronous.network_rounds, lockstep.network_rounds);
            compared += 1;
        }
    }
    assert_eq!(compared, 8 * 7, "the zoo grid shrank — extend this test");
}

// Determinism property: for arbitrary seeds and schedule parameters the
// whole report (outputs, diagnostics, metrics, corruption counters) is
// byte-identical at 1, 2 and 8 worker threads — and a repeated run at the
// reference thread count reproduces it again.  (The vendored proptest macro
// does not accept doc comments on the test item, hence the plain comment.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn async_report_is_identical_at_1_2_and_8_hosts_and_across_reruns(
        seed in any::<u64>(),
        ticks in 0u64..3,
        reorder in 0u64..3,
        crash in any::<bool>(),
    ) {
        let g = mobile_congest::graphs::generators::grid(3, 3);
        let adversary = matrix::AdversaryDef::RandomMobile { f: 1 };
        let mut schedule = ScheduleDef::synchronous()
            .with_latency(LatencyModel::Fixed { ticks })
            .with_reorder_window(reorder);
        if crash {
            schedule = schedule.with_crash(CrashWindow { node: 2, from: 1, until: 4 });
        }

        let run = |hosts: usize| {
            let report = run_cell(
                &g,
                &adversary,
                Box::new(AsyncExecutor::new(schedule.clone()).with_hosts(hosts)),
                payload,
                seed,
                TraceSpec::off(),
                None,
            )
            .expect("fixed-latency schedules validate on grid3x3");
            format!("{report:?}")
        };

        let reference = run(1);
        prop_assert_eq!(&run(2), &reference, "2 hosts diverged from 1");
        prop_assert_eq!(&run(8), &reference, "8 hosts diverged from 1");
        prop_assert_eq!(&run(1), &reference, "a same-seed rerun diverged");
    }
}
