//! Scenario-as-data acceptance tests: the checked-in specs round-trip
//! through the hand-rolled JSON layer and run to pinned fingerprints, the
//! union of all shards equals the unsharded run, the `campaign` binary writes
//! the pinned bytes at any thread count with the cache on or off, and a
//! payload a grid graph cannot run is a typed error before anything runs.

use mobile_congest::harness::campaign::{cell_json, summary_json};
use mobile_congest::harness::json::fnv1a_hex;
use mobile_congest::harness::report::trajectory_header;
use mobile_congest::harness::{Campaign, CampaignReport, CampaignSpec, PayloadDef, SpecError};

mod common;
use common::TempDir;

fn checked_in_spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/e16-small.json");
    std::fs::read_to_string(path).expect("specs/e16-small.json is checked in")
}

#[test]
fn checked_in_spec_is_golden() {
    let text = checked_in_spec_text();
    let spec = CampaignSpec::from_json(&text).expect("checked-in spec parses");
    // parse(format(spec)) == spec …
    assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
    // … and the checked-in file IS the canonical format, byte for byte, so
    // the fingerprint of the file and of the parsed spec can never drift.
    assert_eq!(
        spec.to_json(),
        text,
        "specs/e16-small.json must stay in canonical to_json form"
    );
    assert_eq!(spec.cell_count(), 3 * 3 * 3 * 2);
}

/// `specs/secure-gossip-small.json` runs token dissemination under both
/// secrecy compilers on a torus and a clique.  The report fingerprint covers
/// every output word, round count and adversary metric of the grid; it was
/// captured before the key schedule was rewritten to stream its bit
/// extraction, so the rewrite provably changed no behaviour.
#[test]
fn secure_gossip_spec_is_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/specs/secure-gossip-small.json"
    );
    let text = std::fs::read_to_string(path).expect("specs/secure-gossip-small.json checked in");
    let spec = CampaignSpec::from_json(&text).expect("secure-gossip spec parses");
    assert_eq!(
        spec.to_json(),
        text,
        "specs/secure-gossip-small.json must stay in canonical to_json form"
    );
    assert_eq!(spec.cell_count(), 2 * 2);

    let report = Campaign::from_spec(&spec).unwrap().threads(2).run();
    assert_eq!(
        report.executed().count(),
        4,
        "every cell validates and runs"
    );
    assert!(report.all_protected_cells_agree());
    assert_eq!(
        fnv1a_hex(report.fingerprint().bytes()),
        "d4375e21aa11b9bd",
        "secure-gossip-small report drifted"
    );
}

/// Absolute pins for the other checked-in campaign specs, captured at the
/// commit before the `Compiler` trait was collapsed to `prepare` + `execute`
/// (`cycle-cover-small`: at the commit before the Theorem 1.4 compiler moved
/// onto its flood plan — four zoo graphs × the `f = 1` adversary zoo).
/// Together with `secure_gossip_spec_is_golden` and
/// `bench/golden/fingerprints.json` these are what "byte-identical
/// behaviour" means for a refactor of the execution path.
#[test]
fn spec_report_fingerprints_are_golden() {
    const GOLDEN: [(&str, &str); 4] = [
        ("e16-small", "4d8ec5b8df0ff471"),
        ("frontier-small-world", "8d659f046d26bc4f"),
        ("async-partial-sync", "5f4a3def4ab50c21"),
        ("cycle-cover-small", "72e55460d58e66fe"),
    ];
    for (name, pinned) in GOLDEN {
        let path = format!("{}/specs/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("spec is checked in");
        let spec = CampaignSpec::from_json(&text).expect("spec parses");
        let report = Campaign::from_spec(&spec).unwrap().threads(1).run();
        assert_eq!(
            fnv1a_hex(report.fingerprint().bytes()),
            pinned,
            "specs/{name}.json report drifted"
        );
    }
}

/// The bytes the `campaign` CLI writes for every checked-in campaign spec,
/// pinned as FNV-1a: the trajectory file (`trajectory_header` plus one
/// `cell_json` line per cell) and stdout (one `summary_json` line per grid
/// cell).  The pins above hash the live report's `Debug` form; these hash
/// what the encoders make of it, and were captured from the CLI's own output
/// files before the cell record became the one `kind:"cell"` encoder and the
/// one summary aggregator.  Each spec is checked twice over: through the
/// library's encoders, and by running the `campaign` binary itself at
/// `--threads 1`, at `--threads 4` and at `--threads 1 --no-cache`.  Since
/// every line's counts, `status` and `agrees` are in the pinned bytes, this
/// is the determinism gate for thread count and artifact cache, and it fixes
/// every cell of `cycle-cover-small` and `secure-gossip-small` to agree.
#[test]
fn campaign_cli_bytes_are_golden() {
    const GOLDEN: [(&str, &str, &str); 6] = [
        ("e16-small", "b2bce9874c5e68f3", "0139ed3355b9c47c"),
        (
            "frontier-small-world",
            "572fb7f363275574",
            "aba599118b4a9bb9",
        ),
        ("async-partial-sync", "7a3e628b3406fef5", "380436d70711c248"),
        (
            "secure-gossip-small",
            "2d2e8a84aaed41fb",
            "87085a6aa297f419",
        ),
        ("cycle-cover-small", "1f29630db556da7a", "120e44b421fbe300"),
        (
            "redteam-minimal-example",
            "4c4b4894ee84d860",
            "e9c0c4772972f3d4",
        ),
    ];
    for (name, trajectory_pin, stdout_pin) in GOLDEN {
        let path = format!("{}/specs/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("spec is checked in");
        let spec = CampaignSpec::from_json(&text).expect("spec parses");
        let report = Campaign::from_spec(&spec).unwrap().threads(1).run();
        let mut trajectory = trajectory_header(&spec) + "\n";
        for cell in &report.cells {
            trajectory.push_str(&cell_json(cell));
            trajectory.push('\n');
        }
        let stdout: String = report
            .summaries()
            .iter()
            .map(|s| summary_json(s) + "\n")
            .collect();
        assert_eq!(
            (fnv1a_hex(trajectory.bytes()), fnv1a_hex(stdout.bytes())),
            (trajectory_pin.to_string(), stdout_pin.to_string()),
            "specs/{name}.json: (trajectory, stdout) bytes drifted"
        );

        // The binary itself writes the same bytes at one thread and at four,
        // with the artifact cache on and off.
        let dir = TempDir::new(&format!("golden-{name}"));
        for mode in [
            &["--threads", "1"][..],
            &["--threads", "4"],
            &["--threads", "1", "--no-cache"],
        ] {
            let out = dir.join("trajectory.jsonl");
            let run = common::run(
                dir.command(env!("CARGO_BIN_EXE_campaign"))
                    .arg("--spec")
                    .arg(&path)
                    .arg("--out")
                    .arg(&out)
                    .arg("--quiet")
                    .args(mode),
            )
            .ok();
            assert_eq!(
                (
                    fnv1a_hex(common::file_text(&out).bytes()),
                    fnv1a_hex(run.stdout.bytes())
                ),
                (trajectory_pin.to_string(), stdout_pin.to_string()),
                "`campaign --spec specs/{name}.json {}`: (trajectory, stdout) bytes drifted",
                mode.join(" ")
            );
        }
    }
}

/// `specs/frontier-small-world.json` A/Bs tree-packing v1 vs v2 on the PR-3
/// frontier cell (sparse small world × targeted heaviest-edge adversaries).
/// v1's failure stays pinned as the baseline; v2 must fully correct every
/// cell.  `campaign_cli_bytes_are_golden` pins what the CLI writes for the
/// same spec.
#[test]
fn frontier_spec_pins_v1_failure_and_v2_full_correction() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/specs/frontier-small-world.json"
    );
    let text = std::fs::read_to_string(path).expect("specs/frontier-small-world.json checked in");
    let spec = CampaignSpec::from_json(&text).expect("frontier spec parses");
    assert_eq!(
        spec.to_json(),
        text,
        "specs/frontier-small-world.json must stay in canonical to_json form"
    );

    let report = Campaign::from_spec(&spec).unwrap().threads(2).run();
    assert_eq!(report.cells.len(), 2 * 2 * 3);
    assert_eq!(report.skipped_count(), 0, "every frontier cell validates");

    let mut v1_divergences = 0usize;
    for cell in &report.cells {
        let run = cell.outcome.as_ref().expect("frontier cells execute");
        if cell.compiler.ends_with("v1)") {
            if run.agrees_with_fault_free() == Some(false) {
                v1_divergences += 1;
            }
        } else {
            assert!(
                cell.compiler.ends_with("v2)"),
                "unexpected {}",
                cell.compiler
            );
            assert_eq!(
                run.agrees_with_fault_free(),
                Some(true),
                "v2 must survive {} (seed {})",
                cell.adversary,
                cell.seed
            );
            assert_eq!(run.notes.fully_corrected(), Some(true));
        }
    }
    assert!(
        v1_divergences > 0,
        "the v1 frontier baseline disappeared — update the spec and ROADMAP.md"
    );

    // The summary groups say the same: v2 groups report zero
    // disagreements and a fully_corrected mean of 1.
    for s in report.summaries() {
        if s.compiler.ends_with("v2)") {
            assert_eq!(s.disagreements, 0);
            assert_eq!(s.stat("fully_corrected").unwrap().mean, 1.0);
            assert_eq!(s.stat("packing_max_load").unwrap().max, 3.0);
        }
    }
}

/// `specs/async-partial-sync.json` runs the flood-broadcast payload through
/// the asynchronous execution runtime under delay, reorder and crash-recovery
/// schedules on a small grid and a circulant ring: every async cell completes
/// (no node starves under any schedule), and crash-recovery cells under the
/// eavesdropper still reach full agreement with the fault-free reference.
/// `campaign_cli_bytes_are_golden` pins what the CLI writes for the same
/// spec.
#[test]
fn async_spec_pins_completion_and_crash_recovery() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/async-partial-sync.json");
    let text = std::fs::read_to_string(path).expect("specs/async-partial-sync.json checked in");
    let spec = CampaignSpec::from_json(&text).expect("async spec parses");
    assert_eq!(
        spec.to_json(),
        text,
        "specs/async-partial-sync.json must stay in canonical to_json form"
    );
    assert_eq!(spec.cell_count(), 2 * 2 * 5 * 2);

    let report = Campaign::from_spec(&spec).unwrap().threads(2).run();
    assert_eq!(report.skipped_count(), 0, "every async cell validates");

    let mut crash_recoveries = 0usize;
    for cell in &report.cells {
        let run = cell.outcome.as_ref().expect("async cells execute");
        if cell.compiler.starts_with("async") {
            // The synchronizer must drive every node to termination under
            // every schedule — asynchrony delays rounds, it never starves
            // them.
            assert_eq!(
                run.notes.metrics().iter().find(|(k, _)| *k == "completed"),
                Some(&("completed", 1.0)),
                "{} on {} did not complete",
                cell.compiler,
                cell.graph
            );
        }
        if cell.adversary == "eavesdropper" {
            // An eavesdropper never rewrites payloads, so even the crashed
            // cells must fully recover and agree once the queue drains.
            assert_eq!(
                run.agrees_with_fault_free(),
                Some(true),
                "{} on {} diverged under a read-only adversary",
                cell.compiler,
                cell.graph
            );
            if cell.compiler.contains("crash") {
                crash_recoveries += 1;
            }
        }
    }
    assert!(
        crash_recoveries > 0,
        "the crash-recovery gate cells disappeared — update the spec and this test"
    );
}

#[test]
fn shard_union_equals_the_unsharded_run() {
    let spec = CampaignSpec::from_json(&checked_in_spec_text()).unwrap();
    let full = Campaign::from_spec(&spec).unwrap().threads(2).run();

    const SHARDS: usize = 3;
    let shard_reports: Vec<CampaignReport> = (0..SHARDS)
        .map(|i| {
            Campaign::from_spec(&spec)
                .unwrap()
                .threads(2)
                .shard(i, SHARDS)
                .run()
        })
        .collect();
    // Shards are disjoint and collectively exhaustive …
    let per_shard: Vec<usize> = shard_reports.iter().map(|r| r.cells.len()).collect();
    assert_eq!(per_shard.iter().sum::<usize>(), full.cells.len());
    assert!(per_shard.iter().all(|&n| n > 0), "every shard runs cells");
    // Summaries of a non-contiguous subset must group by grid cell, never
    // glue a repetition onto the preceding (different) cell's group.
    for report in &shard_reports {
        let summaries = report.summaries();
        let mut keys: Vec<usize> = report
            .cells
            .iter()
            .map(|c| c.index - c.repetition)
            .collect();
        keys.dedup();
        assert_eq!(summaries.len(), keys.len(), "one summary per grid cell");
        let (mut si, mut current) = (0usize, None);
        for cell in &report.cells {
            let key = cell.index - cell.repetition;
            if current != Some(key) {
                if current.is_some() {
                    si += 1;
                }
                current = Some(key);
            }
            let s = &summaries[si];
            assert_eq!(
                (s.graph.as_str(), s.adversary.as_str(), s.compiler.as_str()),
                (
                    cell.graph.as_str(),
                    cell.adversary.as_str(),
                    cell.compiler.as_str()
                ),
                "summary group mixed cells from different grid coordinates"
            );
        }
    }

    // … and merging them reproduces the unsharded run byte for byte.
    let merged = CampaignReport::merged(shard_reports);
    assert_eq!(merged.fingerprint(), full.fingerprint());
    assert_eq!(merged.to_jsonl(), full.to_jsonl());
}

#[test]
fn run_cells_reproduces_exactly_the_requested_subset() {
    let spec = CampaignSpec::from_json(&checked_in_spec_text()).unwrap();
    let campaign = Campaign::from_spec(&spec).unwrap().threads(2);
    let full = campaign.run();

    // An arbitrary subset (every fourth cell): same cells, same bytes.
    let subset: Vec<usize> = (0..spec.cell_count()).step_by(4).collect();
    let partial = campaign.run_cells(&subset);
    assert_eq!(partial.cells.len(), subset.len());
    for cell in &partial.cells {
        let twin = &full.cells[cell.index];
        assert_eq!(format!("{cell:?}"), format!("{twin:?}"));
    }
    // Out-of-range indices are ignored, not run.
    let clipped = campaign.run_cells(&[0, spec.cell_count() + 100]);
    assert_eq!(clipped.cells.len(), 1);
}

/// `flood-broadcast`, `leader-election` and `token-dissemination` can never
/// finish on a disconnected graph (their constructors assert a diameter), so
/// such a spec is refused by `from_spec`, naming the graph and the payload —
/// it used to resolve and then panic a worker.  `exchange-ids` runs anywhere.
#[test]
fn connected_only_payloads_on_a_disconnected_graph_are_a_typed_spec_error() {
    let spec_with = |payload: &str| {
        CampaignSpec::from_json(&format!(
            r#"{{"kind":"campaign-spec","seed":9,"repetitions":1,"grid":{{
             "graphs":[{{"family":"complete","n":6}},
                       {{"family":"expander-d-regular","n":24,"d":2,"seed":2}}],
             "adversaries":[{{"kind":"random-mobile","f":1}}],
             "compilers":[{{"id":"uncompiled"}}],
             "payload":{payload}}}}}"#
        ))
        .expect("the spec parses: connectivity is a resolution matter")
    };
    for payload in [
        r#"{"kind":"flood-broadcast","source":0,"value":7}"#,
        r#"{"kind":"leader-election"}"#,
        r#"{"kind":"token-dissemination","batch":2}"#,
    ] {
        let spec = spec_with(payload);
        let label = spec.grid.payload.label();
        match Campaign::from_spec(&spec) {
            Err(SpecError::Invalid { reason }) => assert_eq!(
                reason,
                format!(
                    "payload {label} needs a connected graph, and `expander(24,2)` is disconnected"
                )
            ),
            Err(other) => panic!("{label}: wrong error {other:?}"),
            Ok(_) => panic!("{label} resolved on a disconnected graph"),
        }
    }
    let spec = spec_with(r#"{"kind":"exchange-ids"}"#);
    assert_eq!(spec.grid.payload, PayloadDef::ExchangeIds);
    let report = Campaign::from_spec(&spec).unwrap().threads(1).run();
    assert_eq!(report.executed().count(), 2);
}
