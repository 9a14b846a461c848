//! Property tests for the campaign-report record codec
//! (`mobile_congest_harness::report`): arbitrary records survive the
//! encode → parse round trip byte-for-byte, and the report fingerprint (FNV-1a
//! over the records' lines) is a pure function of the cells.

use mobile_congest_harness::json::fnv1a_hex;
use mobile_congest_harness::report::{CellRecord, RecordOutcome};
use proptest::prelude::*;

/// A random display-name-ish string exercising the escaper (names in real
/// campaigns contain parens, equals signs and digits; throw in the JSON
/// specials too).
fn arbitrary_name(picks: &[u32]) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', '(', ')', '=', '-', ' ', '"', '\\', '\n', '\t', 'é', '😀', '{', '}',
    ];
    picks
        .iter()
        .map(|&p| ALPHABET[p as usize % ALPHABET.len()])
        .collect()
}

/// A finite f64 from raw bits (NaN/inf never reach the serializer — campaign
/// facets are finite by construction).
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        (bits % 1_000_003) as f64 / 7.0
    }
}

fn arbitrary_record(
    index: usize,
    tag: u32,
    seed: u64,
    name_picks: &[u32],
    floats: &[u64],
) -> CellRecord {
    let outcome = match tag % 4 {
        0 | 1 => RecordOutcome::Ok {
            payload_rounds: (seed % 1000) as usize,
            network_rounds: (seed % 10_000) as usize,
            corrupted_edge_rounds: (seed % 77) as usize,
            cong_p99: finite(floats.first().copied().unwrap_or(42)),
            cong_topk: finite(floats.get(1).copied().unwrap_or(43)),
            agrees: match tag % 3 {
                0 => Some(true),
                1 => Some(false),
                _ => None,
            },
            notes_type: arbitrary_name(name_picks),
            notes: floats
                .iter()
                .enumerate()
                .map(|(i, &bits)| (format!("metric_{i}"), finite(bits)))
                .collect(),
        },
        2 => RecordOutcome::Skipped {
            error: arbitrary_name(name_picks),
        },
        _ => RecordOutcome::Failed {
            error: arbitrary_name(name_picks),
        },
    };
    CellRecord {
        index,
        graph: arbitrary_name(name_picks),
        adversary: format!("adv-{}", tag % 5),
        compiler: arbitrary_name(&name_picks.iter().rev().copied().collect::<Vec<_>>()),
        repetition: index % 3,
        seed,
        outcome,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn cell_records_round_trip_exactly(
        tag in any::<u32>(),
        seed in any::<u64>(),
        name_picks in prop::collection::vec(any::<u32>(), 0..12),
        floats in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let record = arbitrary_record(7, tag, seed, &name_picks, &floats);
        let line = record.to_json();
        let back = CellRecord::from_json(&line)
            .map_err(|e| TestCaseError(format!("`{line}` failed to parse: {e}")))?;
        prop_assert_eq!(&back, &record);
        prop_assert_eq!(back.to_json(), line, "encode must be idempotent");
    }

    #[test]
    fn report_records_round_trip_and_fingerprint_stably(
        shapes in prop::collection::vec(
            (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u32>(), 0..6)),
            0..8,
        ),
    ) {
        let records: Vec<CellRecord> = shapes
            .iter()
            .enumerate()
            .map(|(i, (tag, seed, picks))| arbitrary_record(i, *tag, *seed, picks, &[*seed]))
            .collect();
        let jsonl = |records: &[CellRecord]| -> String {
            records.iter().map(|r| r.to_json() + "\n").collect()
        };
        let text = jsonl(&records);
        let back = text
            .lines()
            .map(CellRecord::from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| TestCaseError(format!("round trip failed: {e}")))?;
        prop_assert_eq!(&back, &records);
        prop_assert_eq!(jsonl(&back), text.clone());
        prop_assert_eq!(fnv1a_hex(jsonl(&back).bytes()), fnv1a_hex(text.bytes()));
    }
}
