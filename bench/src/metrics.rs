//! The metric catalogue: every name the bench prints, with unit, direction
//! and (end to end) the bound by which its median may worsen.  The
//! `BENCHMARK.json` at the repo root repeats this table; a unit test keeps
//! the two equal.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn from_label(label: &str) -> Option<Better> {
        match label {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One catalogue entry; `bound` is `Some` for end-to-end metrics only.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, measured on every workload from the untraced
/// child-process runs.  All are host time or host memory; simulated
/// statistics repeat exactly and are checked, not measured.
///
/// The issue asked for 8 % on the timings.  On the 2-vCPU shared host this
/// was built on, the same child on the same spec took 1.34–2.47 s over nine
/// minutes; scaled to the nominal host speed (`speed.rs`) ten runs spread
/// 4–11 % where the clock's spread 3–30 % (README, "Measured spread").  A
/// bound has to exceed the drift between two sets of runs or it rejects
/// unchanged code, so every timing carries the contract's maximum.  Memory
/// repeats to 1–2 %.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("setup_s", "s", Lower, Some(0.25)),
        def("wall_s", "s", Lower, Some(0.25)),
        def("cells_per_s", "cells/s", Higher, Some(0.25)),
        def("sim_rounds_per_s", "rounds/s", Higher, Some(0.25)),
        def("cpu_s", "s", Lower, Some(0.25)),
        def("peak_rss_mb", "MiB", Lower, Some(0.10)),
        def("job_ms_p50", "ms", Lower, Some(0.25)),
    ]
}

/// Compiler labels of the `core.*.<c>` rows.
pub const COMPILERS: [&str; 7] = [
    "uncompiled",
    "clique",
    "tree-packing-v1",
    "tree-packing-v2",
    "cycle-cover",
    "static-to-mobile",
    "congestion-sensitive",
];

/// The per-layer metrics (layer = crate, the prefix before the first dot).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(def(name, unit, better, None));
    };
    add("coding.gf256_addmul_mb_s", "MB/s", Higher);
    add("coding.gf2_16_addmul_mb_s", "MB/s", Higher);
    add("coding.rs_new_us", "us", Lower);
    add("coding.rs_encode_us", "us", Lower);
    add("coding.rs_syndromes_us", "us", Lower);
    add("coding.rs_decode_clean_us", "us", Lower);
    add("coding.rs_decode_maxerr_us", "us", Lower);
    add("coding.bit_extract_us", "us", Lower);
    add("coding.kwise_hash_ns", "ns", Lower);
    add("netgraph.graph_build_us", "us", Lower);
    add("netgraph.csr_build_us", "us", Lower);
    add("netgraph.packing_v1_us_per_edge", "us", Lower);
    add("netgraph.packing_v2_us_per_edge", "us", Lower);
    add("netgraph.cycle_cover_build_ms", "ms", Lower);
    add("sketches.l0_update_ns", "ns", Lower);
    add("sketches.l0_query_us", "us", Lower);
    add("sketches.sparse_decode_us", "us", Lower);
    add("congest.exchange_ns_per_arc_word", "ns", Lower);
    add("congest.exchange_idle_ns_per_round", "ns", Lower);
    add("interactive.plan_build_us", "us", Lower);
    add("interactive.scheduler_us_per_round", "us", Lower);
    for c in COMPILERS {
        add(&format!("core.cell_hit_ms_p50.{c}"), "ms", Lower);
        add(&format!("core.cell_miss_ms_p50.{c}"), "ms", Lower);
        add(&format!("core.share_pct.{c}"), "%", Lower);
    }
    add("core.prepare_share_pct", "%", Lower);
    add("harness.spec_parse_ms", "ms", Lower);
    add("harness.spec_resolve_ms", "ms", Lower);
    add("harness.cell_ms_p50", "ms", Lower);
    add("harness.cell_ms_p99", "ms", Lower);
    add("harness.summaries_ms", "ms", Lower);
    add("harness.encode_ms", "ms", Lower);
    add("harness.write_ms", "ms", Lower);
    add("harness.cache_hits", "count", Higher);
    add("harness.cache_misses", "count", Lower);
    add("harness.cache_hit_ns", "ns", Lower);
    add("harness.json_parse_mb_s", "MB/s", Higher);
    add("harness.json_encode_mb_s", "MB/s", Higher);
    add("harness.engine_ns_per_cell", "ns", Lower);
    add("harness.wall_2t_s", "s", Lower);
    add("harness.speedup_2t", "ratio", Higher);
    add("harness.unattributed_pct", "%", Lower);
    add("campaignd.append_fsync_per_s", "1/s", Higher);
    add("campaignd.load_jobs_ms", "ms", Lower);
    add("campaignd.submit_ms_p50", "ms", Lower);
    add("campaignd.status_req_per_s", "1/s", Higher);
    add("campaignd.job_ms_p95", "ms", Lower);
    add("campaignd.read_ms_p50", "ms", Lower);
    add("campaignd.read_ms_p95", "ms", Lower);
    add("campaignd.reader_late_ms_p95", "ms", Lower);
    add("campaignd.query_all_ms", "ms", Lower);
    add("campaignd.overhead_pct", "%", Lower);
    add("obs.ring_overhead_pct", "%", Lower);
    add("obs.jsonl_overhead_pct", "%", Lower);
    add("async_exec.cells_per_s", "cells/s", Higher);
    add("redteam.units_per_s", "1/s", Higher);
    add("bench.trace_overhead_pct", "%", Lower);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobile_congest::harness::json::{self, JsonValue};

    fn listed(doc: &JsonValue, key: &str) -> Vec<MetricDef> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has `{key}`"))
            .iter()
            .map(|m| MetricDef {
                name: m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
                unit: Box::leak(
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                        .into_boxed_str(),
                ),
                better: Better::from_label(m.get("better").and_then(JsonValue::as_str).unwrap())
                    .unwrap(),
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_this_catalogue_and_the_workload_names() {
        let path = crate::env::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is committed");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), end_to_end());
        assert_eq!(listed(&doc, "per_layer"), per_layer());
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_u64),
            Some(crate::RUN_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in end_to_end().into_iter().chain(per_layer()) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{m:?}"
            );
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end().iter().all(|m| m.bound.unwrap() <= 0.25));
    }
}
