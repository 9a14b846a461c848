//! Pins for the record path (`harness::report`) against the live campaign
//! report, and the `CampaignReport::merged` edge cases: empty input, a
//! single shard, overlapping indices, and merged-equals-unsharded across
//! 1/2/8-way shard splits of the checked-in `specs/e16-small.json`.

use mobile_congest::harness::campaign::{summary_json, CampaignReport};
use mobile_congest::harness::report::{summaries_of, CellRecord};
use mobile_congest::harness::{Campaign, CampaignSpec};

fn checked_in_campaign() -> Campaign {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/e16-small.json");
    let text = std::fs::read_to_string(path).expect("specs/e16-small.json is checked in");
    let spec = CampaignSpec::from_json(&text).unwrap();
    Campaign::from_spec(&spec).unwrap().threads(2)
}

#[test]
fn merging_no_reports_yields_an_empty_report() {
    let merged = CampaignReport::merged(Vec::new());
    assert!(merged.cells.is_empty());
    assert!(merged.summaries().is_empty());
    assert_eq!(merged.to_jsonl(), "");
    assert!(summaries_of(&Vec::<CellRecord>::new()).is_empty());
}

#[test]
fn merging_a_single_shard_is_the_identity() {
    let campaign = checked_in_campaign();
    let report = campaign.run_cells(&[0, 1, 2, 3]);
    let jsonl = report.to_jsonl();
    let fingerprint = report.fingerprint();
    let merged = CampaignReport::merged(vec![report]);
    assert_eq!(merged.to_jsonl(), jsonl);
    assert_eq!(merged.fingerprint(), fingerprint);
}

#[test]
fn merging_overlapping_shards_dedups_by_cell_index() {
    let campaign = checked_in_campaign();
    // Two "shards" that both ran cell 2: the merge must keep exactly one
    // copy and come out identical to running the union directly.
    let a = campaign.run_cells(&[0, 1, 2]);
    let b = campaign.run_cells(&[2, 3]);
    let merged = CampaignReport::merged(vec![a, b]);
    assert_eq!(
        merged.cells.iter().map(|c| c.index).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    let union = campaign.run_cells(&[0, 1, 2, 3]);
    assert_eq!(merged.to_jsonl(), union.to_jsonl());
    assert_eq!(merged.fingerprint(), union.fingerprint());
}

#[test]
fn merged_shard_splits_reproduce_the_unsharded_run() {
    let campaign = checked_in_campaign();
    let full = campaign.run();
    for of in [1usize, 2, 8] {
        let shards: Vec<CampaignReport> = (0..of)
            .map(|i| {
                let indices: Vec<usize> = campaign
                    .cell_indices()
                    .into_iter()
                    .filter(|index| index % of == i)
                    .collect();
                campaign.run_cells(&indices)
            })
            .collect();
        let merged = CampaignReport::merged(shards);
        assert_eq!(merged.fingerprint(), full.fingerprint(), "of={of}");
        assert_eq!(merged.to_jsonl(), full.to_jsonl(), "of={of}");
    }
}

#[test]
fn record_summaries_match_the_live_report_summaries() {
    // The record path (stored cells, no profile data) and the live path
    // must produce the same summary bytes on an untraced run.
    let campaign = checked_in_campaign();
    let report = campaign.run();
    let records: Vec<CellRecord> = report.cells.iter().map(CellRecord::of).collect();
    let jsonl = |summaries: Vec<_>| -> String {
        summaries.iter().map(|s| summary_json(s) + "\n").collect()
    };
    assert_eq!(jsonl(summaries_of(&records)), jsonl(report.summaries()));
}
