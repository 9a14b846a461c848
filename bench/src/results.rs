//! The one result schema (written to `<target>/bench/results.json`, committed
//! per PR as `bench/results/BENCH_<pr>.json`) and `bench compare`.

use crate::env::Host;
use crate::metrics::{Better, MetricDef};
use crate::stats::Summary;
use mobile_congest::harness::json::{self, json_num, json_str, JsonValue};
use std::collections::BTreeMap;

pub const SCHEMA: &str = "mobile-congest-bench/1";
pub const BENCH_ID: &str = "bench-v1";

/// Probe metrics are measured once per invocation, on no workload.
pub const PROBES: &str = "probes";

/// One metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub workload: String,
    pub def: MetricDef,
    pub summary: Summary,
}

/// A whole run.
#[derive(Debug, Clone)]
pub struct Results {
    pub host: Host,
    pub seed: u64,
    /// Worker threads of the measured programs.
    pub threads: usize,
    pub run_seconds: f64,
    pub quick: bool,
    /// Workload → what its outputs hashed to (trajectory fingerprints).
    pub fingerprints: BTreeMap<String, Vec<String>>,
    pub lines: Vec<Line>,
}

impl Results {
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(SCHEMA)));
        out.push_str(&format!("  \"bench\": {},\n", json_str(BENCH_ID)));
        out.push_str(&format!(
            "  \"git_rev\": {},\n",
            json_str(&self.host.git_rev)
        ));
        out.push_str(&format!(
            "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"gf256_backend\": {}, \"worker_threads\": {}}},\n",
            self.host.nproc,
            json_str(&self.host.cpu_model),
            json_str(&self.host.rustc),
            json_str(&self.host.gf256_backend),
            self.threads,
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"run_seconds\": {},\n",
            json_num(self.run_seconds)
        ));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"fingerprints\": {");
        for (i, (workload, fps)) in self.fingerprints.iter().enumerate() {
            let list: Vec<String> = fps.iter().map(|f| json_str(f)).collect();
            out.push_str(&format!(
                "{}{}: [{}]",
                if i > 0 { ", " } else { "" },
                json_str(workload),
                list.join(", ")
            ));
        }
        out.push_str("},\n  \"lines\": [\n");
        for (i, line) in self.lines.iter().enumerate() {
            let s = &line.summary;
            let bound = match line.def.bound {
                Some(b) => format!(", \"bound\": {}", json_num(b)),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{\"bench\": {}, \"workload\": {}, \"metric\": {}, \"unit\": {}, \"better\": {}{bound}, \"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}{}\n",
                json_str(BENCH_ID),
                json_str(&line.workload),
                json_str(&line.def.name),
                json_str(line.def.unit),
                json_str(line.def.better.label()),
                s.n,
                json_num(s.min),
                json_num(s.q1),
                json_num(s.median),
                json_num(s.q3),
                json_num(s.max),
                if i + 1 < self.lines.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The part of a results file `compare` needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Loaded {
    pub git_rev: String,
    pub seed: u64,
    pub fingerprints: BTreeMap<String, Vec<String>>,
    /// End-to-end lines only (those carrying a bound), keyed by
    /// `(workload, metric)`.
    pub end_to_end: BTreeMap<(String, String), (Better, f64, Summary)>,
}

pub fn load(text: &str) -> Result<Loaded, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("not a `{SCHEMA}` results file"));
    }
    let mut loaded = Loaded {
        git_rev: doc
            .get("git_rev")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string(),
        seed: doc
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or("no seed")?,
        fingerprints: BTreeMap::new(),
        end_to_end: BTreeMap::new(),
    };
    for (workload, fps) in doc
        .get("fingerprints")
        .and_then(JsonValue::as_object)
        .unwrap_or(&[])
    {
        let fps = fps.as_array().unwrap_or(&[]);
        loaded.fingerprints.insert(
            workload.clone(),
            fps.iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
        );
    }
    for line in doc
        .get("lines")
        .and_then(JsonValue::as_array)
        .ok_or("no lines")?
    {
        let Some(bound) = line.get("bound").and_then(JsonValue::as_f64) else {
            continue;
        };
        let text = |key: &str| {
            line.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("a line lacks `{key}`"))
        };
        let num = |key: &str| {
            line.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("a line lacks `{key}`"))
        };
        let summary = Summary {
            n: num("n")? as usize,
            min: num("min")?,
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
            max: num("max")?,
        };
        let better = Better::from_label(&text("better")?).ok_or("bad `better`")?;
        loaded.end_to_end.insert(
            (text("workload")?, text("metric")?),
            (better, bound, summary),
        );
    }
    Ok(loaded)
}

/// The verdict on one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The A-side spread exceeds the bound, so a median shift of that size
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative =
/// better), and the verdict under `bound`.
pub fn judge(better: Better, bound: f64, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    let every_b_beats_every_a = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    let verdict = if a.spread() > bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// The comparison table and whether anything got worse (or, on equal seeds,
/// any output fingerprint differs).
pub fn compare(a: &Loaded, b: &Loaded) -> (String, bool) {
    let mut out = format!(
        "A: rev {} seed {}    B: rev {} seed {}\n{:<14} {:<18} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  {}\n",
        a.git_rev, a.seed, b.git_rev, b.seed,
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "worse%", "bound%", "verdict",
    );
    let mut failed = false;
    for ((workload, metric), (better, bound, sa)) in &a.end_to_end {
        let Some((_, _, sb)) = b.end_to_end.get(&(workload.clone(), metric.clone())) else {
            out.push_str(&format!("{workload:<14} {metric:<18} missing from B\n"));
            failed = true;
            continue;
        };
        let (worse_by, verdict) = judge(*better, *bound, sa, sb);
        failed |= verdict == Verdict::Worse;
        out.push_str(&format!(
            "{workload:<14} {metric:<18} {:>12.4} {:>8.2} {:>12.4} {:>8.2} {:>+8.2} {:>6.1}  {}\n",
            sa.median,
            sa.spread() * 100.0,
            sb.median,
            sb.spread() * 100.0,
            worse_by * 100.0,
            bound * 100.0,
            verdict.label(),
        ));
    }
    if a.seed == b.seed {
        let same = a.fingerprints == b.fingerprints;
        out.push_str(&format!(
            "output fingerprints (same seed): {}\n",
            if same { "identical" } else { "DIFFERENT" }
        ));
        failed |= !same;
    } else {
        out.push_str("output fingerprints: not comparable (different seeds)\n");
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn results(wall: &[f64]) -> Results {
        let defs = metrics::end_to_end();
        let wall_def = defs.iter().find(|d| d.name == "wall_s").unwrap().clone();
        let rate_def = defs
            .iter()
            .find(|d| d.name == "cells_per_s")
            .unwrap()
            .clone();
        let rates: Vec<f64> = wall.iter().map(|w| 1000.0 / w).collect();
        Results {
            host: Host {
                nproc: 2,
                cpu_model: "test \"cpu\"".into(),
                rustc: "rustc 1.0".into(),
                gf256_backend: "swar".into(),
                git_rev: "abc".into(),
            },
            seed: 2024,
            threads: 1,
            run_seconds: 15.0,
            quick: false,
            fingerprints: BTreeMap::from([("byz-zoo".to_string(), vec!["f00d".to_string()])]),
            lines: vec![
                Line {
                    workload: "byz-zoo".into(),
                    def: wall_def,
                    summary: Summary::of(wall),
                },
                Line {
                    workload: "byz-zoo".into(),
                    def: rate_def,
                    summary: Summary::of(&rates),
                },
                Line {
                    workload: PROBES.into(),
                    def: metrics::per_layer()[0].clone(),
                    summary: Summary::single(900.0),
                },
            ],
        }
    }

    #[test]
    fn results_round_trip_through_the_schema() {
        let r = results(&[1.0, 1.01, 0.99, 1.0, 1.02]);
        let loaded = load(&r.to_json()).unwrap();
        assert_eq!((loaded.seed, loaded.git_rev.as_str()), (2024, "abc"));
        assert_eq!(loaded.fingerprints, r.fingerprints);
        assert_eq!(loaded.end_to_end.len(), 2, "probe lines carry no bound");
        let (better, bound, summary) = &loaded.end_to_end[&("byz-zoo".into(), "wall_s".into())];
        assert_eq!(
            (*better, Some(*bound)),
            (Better::Lower, r.lines[0].def.bound)
        );
        assert_eq!(*summary, r.lines[0].summary);
        assert!(load("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = Summary::of(&[1.0, 1.01, 0.99, 1.0, 1.0]);
        let slower = Summary::of(&[1.2, 1.21, 1.19, 1.2, 1.2]);
        let slightly = Summary::of(&[1.05, 1.04, 1.05, 1.06, 1.05]);
        assert_eq!(
            judge(Better::Lower, 0.08, &steady, &slower).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.08, &steady, &slightly).1,
            Verdict::Ok
        );
        assert_eq!(judge(Better::Lower, 0.08, &slower, &steady).1, Verdict::Ok);
        // Higher-is-better flips the sign.
        assert_eq!(
            judge(Better::Higher, 0.08, &slower, &steady).1,
            Verdict::Worse
        );
        // A noisy A side cannot resolve an 8 % bound …
        let noisy = Summary::of(&[1.0, 1.3, 0.8, 1.1, 0.9]);
        assert_eq!(
            judge(Better::Lower, 0.08, &noisy, &slower).1,
            Verdict::Unresolved
        );
        // … unless every B run beats every A run.
        let fast = Summary::of(&[0.5, 0.51, 0.52, 0.5, 0.5]);
        assert_eq!(judge(Better::Lower, 0.08, &noisy, &fast).1, Verdict::Ok);
    }

    #[test]
    fn compare_flags_regressions_and_fingerprint_drift() {
        let a = load(&results(&[1.0, 1.01, 0.99, 1.0, 1.02]).to_json()).unwrap();
        let (table, failed) = compare(&a, &a);
        assert!(!failed, "{table}");
        assert!(table.contains("identical") && table.contains("ok"));
        let b = load(&results(&[1.3, 1.31, 1.29, 1.3, 1.32]).to_json()).unwrap();
        let (table, failed) = compare(&a, &b);
        assert!(failed && table.contains("worse"), "{table}");
        let mut drift = a.clone();
        drift
            .fingerprints
            .insert("byz-zoo".into(), vec!["beef".into()]);
        let (table, failed) = compare(&a, &drift);
        assert!(failed && table.contains("DIFFERENT"), "{table}");
    }
}
