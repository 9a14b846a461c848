//! Per-layer probes: isolated loops over one public function of a layer, at
//! the shape the workloads use it.  Each reports the median of a few
//! repetitions in the layer's own unit.
//!
//! API surface rule: later changes may not edit this package, so the probes
//! call only functions the roadmap keeps (see the README's list) — never the
//! on-the-fly correction wrappers, `congest::reference`, `RsScheduler::
//! run_family` or `CongestAlgorithm::send`.

use crate::stats::Summary;
use crate::workloads;
use mobile_congest::campaignd::{FsStore, Store};
use mobile_congest::codes::{BitExtractor, Field, Gf256, Gf2_16, KWiseHash, ReedSolomon};
use mobile_congest::graphs::cycle_cover::FtCycleCover;
use mobile_congest::graphs::tree_packing::{
    augmented_low_depth_packing, greedy_low_depth_packing, star_packing,
};
use mobile_congest::graphs::{Graph, GraphDef};
use mobile_congest::harness::{ArtifactCache, Campaign, CampaignSpec, CellRecord};
use mobile_congest::icoding::{RsScheduler, SchedulePlan};
use mobile_congest::obs::TraceSpec;
use mobile_congest::redteam::{RedTeam, RedTeamSpec};
use mobile_congest::scenario::matrix::graph_zoo_defs;
use mobile_congest::scenario::CompilerDef;
use mobile_congest::sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
use mobile_congest::sim::{Network, Traffic};
use mobile_congest::sketch::{L0Sampler, SketchRandomness, SparseRecovery};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long each probe measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Repetitions; the reported value is their median.
    pub reps: usize,
    /// Minimum measured time per repetition.
    pub min: Duration,
}

impl Budget {
    pub fn full() -> Budget {
        Budget {
            reps: 5,
            min: Duration::from_millis(60),
        }
    }

    pub fn quick() -> Budget {
        Budget {
            reps: 1,
            min: Duration::from_millis(5),
        }
    }
}

/// Nanoseconds per call of `op`, one sample per repetition.  The iteration
/// count is calibrated so a repetition lasts at least `budget.min`.
fn ns_per_op(budget: Budget, mut op: impl FnMut()) -> Vec<f64> {
    let t0 = Instant::now();
    op();
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let iters = (budget.min.as_nanos() / once.as_nanos()).clamp(1, 50_000_000) as u64;
    (0..budget.reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect()
}

/// Like [`ns_per_op`] for an `op` that consumes a fresh input: `setup` is
/// not timed.
fn ns_per_op_with_setup<T>(
    budget: Budget,
    mut setup: impl FnMut() -> T,
    mut op: impl FnMut(T),
) -> Vec<f64> {
    (0..budget.reps)
        .map(|_| {
            let (mut spent, mut iters) = (Duration::ZERO, 0u64);
            while spent < budget.min {
                let input = setup();
                let t0 = Instant::now();
                op(input);
                spent += t0.elapsed();
                iters += 1;
            }
            spent.as_nanos() as f64 / iters as f64
        })
        .collect()
}

fn scaled(samples: Vec<f64>, f: impl Fn(f64) -> f64) -> Summary {
    Summary::of(&samples.into_iter().map(f).collect::<Vec<_>>())
}

fn is_complete(g: &Graph) -> bool {
    let n = g.node_count();
    g.edge_count() == n * (n - 1) / 2
}

fn coding(budget: Budget, out: &mut Vec<(String, Summary)>) {
    // 4 KiB cache-resident slices.
    let src: Vec<Gf256> = (0..4096u64).map(|i| Gf256::from_u64(i * 7 + 1)).collect();
    let mut acc = vec![Gf256::ZERO; src.len()];
    let c = Gf256::from_u64(0x53);
    let ns = ns_per_op(budget, || {
        Gf256::addmul_slice(black_box(&mut acc), black_box(&src), c)
    });
    out.push((
        "coding.gf256_addmul_mb_s".into(),
        scaled(ns, |ns| 4096.0 / ns * 1e3),
    ));
    let src: Vec<Gf2_16> = (0..2048u64).map(|i| Gf2_16::from_u64(i * 31 + 1)).collect();
    let mut acc = vec![Gf2_16::ZERO; src.len()];
    let c = Gf2_16::from_u64(0x1234);
    let ns = ns_per_op(budget, || {
        Gf2_16::addmul_slice(black_box(&mut acc), black_box(&src), c)
    });
    out.push((
        "coding.gf2_16_addmul_mb_s".into(),
        scaled(ns, |ns| 4096.0 / ns * 1e3),
    ));

    // The RS(ℓ, k) that tree-packing(f=1) uses on K12: one symbol per tree
    // of the clique's star packing, ℓ = ⌊k/4⌋ data symbols.
    let k12 = GraphDef::complete(12).build().expect("K12 builds");
    let k = star_packing(&k12, 0).len();
    let ell = mobile_congest::compilers::resilient::rs_data_symbols(k);
    let us = |ns: f64| ns / 1e3;
    let ns = ns_per_op(budget, || {
        black_box(ReedSolomon::<Gf2_16>::new(black_box(ell), black_box(k)).expect("ℓ ≤ k"));
    });
    out.push(("coding.rs_new_us".into(), scaled(ns, us)));
    let rs = ReedSolomon::<Gf2_16>::new(ell, k).expect("ℓ ≤ k");
    let message: Vec<Gf2_16> = (0..ell as u64)
        .map(|i| Gf2_16::from_u64(i * 977 + 5))
        .collect();
    let ns = ns_per_op(budget, || {
        black_box(rs.encode(black_box(&message)).expect("length matches"));
    });
    out.push(("coding.rs_encode_us".into(), scaled(ns, us)));
    let clean = rs.encode(&message).expect("length matches");
    let ns = ns_per_op(budget, || {
        black_box(rs.syndromes(black_box(&clean)).expect("length matches"));
    });
    out.push(("coding.rs_syndromes_us".into(), scaled(ns, us)));
    let ns = ns_per_op(budget, || {
        black_box(rs.decode(black_box(&clean)).expect("a codeword decodes"));
    });
    out.push(("coding.rs_decode_clean_us".into(), scaled(ns, us)));
    let mut dirty = clean.clone();
    for symbol in dirty.iter_mut().take(rs.error_capacity()) {
        *symbol = *symbol + Gf2_16::ONE;
    }
    assert_eq!(rs.decode(&dirty).expect("within capacity"), message);
    let ns = ns_per_op(budget, || {
        black_box(rs.decode(black_box(&dirty)).expect("within capacity"));
    });
    out.push(("coding.rs_decode_maxerr_us".into(), scaled(ns, us)));

    // Key extraction as static-to-mobile(t=4) does it for a 20-round payload:
    // 24 exchanged chunks condensed to 20 hidden ones, per arc and lane.
    let extractor = BitExtractor::<Gf2_16>::new(24, 4).expect("fits the field");
    let column: Vec<Gf2_16> = (0..24u64).map(|i| Gf2_16::from_u64(i * 4099 + 3)).collect();
    let ns = ns_per_op(budget, || {
        black_box(
            extractor
                .extract(black_box(&column))
                .expect("length matches"),
        );
    });
    out.push(("coding.bit_extract_us".into(), scaled(ns, us)));
    // The congestion-sensitive tagger: c = 4·f·cong = 16-wise independent.
    let tagger = KWiseHash::from_seed(0x917E, 16, u64::MAX);
    let mut x = 1u64;
    let ns = ns_per_op(budget, || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        black_box(tagger.hash(black_box(x)));
    });
    out.push(("coding.kwise_hash_ns".into(), scaled(ns, |ns| ns)));
}

fn netgraph(budget: Budget, out: &mut Vec<(String, Summary)>) {
    let defs = graph_zoo_defs(workloads::TOPOLOGY_SEED);
    let graphs: Vec<Graph> = defs
        .iter()
        .map(|def| def.build().expect("zoo defs are valid"))
        .collect();
    let per_graph_us = |ns: f64| ns / 1e3 / defs.len() as f64;
    let ns = ns_per_op(budget, || {
        for def in &defs {
            black_box(def.build().expect("zoo defs are valid"));
        }
    });
    out.push(("netgraph.graph_build_us".into(), scaled(ns, per_graph_us)));
    let edge_lists: Vec<(usize, Vec<(usize, usize)>)> = graphs
        .iter()
        .map(|g| {
            (
                g.node_count(),
                g.edges().iter().map(|e| (e.u, e.v)).collect(),
            )
        })
        .collect();
    let ns = ns_per_op_with_setup(
        budget,
        || -> Vec<Graph> {
            edge_lists
                .iter()
                .map(|(n, edges)| Graph::from_edges(*n, edges))
                .collect()
        },
        |fresh| {
            for g in &fresh {
                black_box(g.csr());
            }
        },
    );
    out.push(("netgraph.csr_build_us".into(), scaled(ns, per_graph_us)));

    // Packings as the resilient adapters build them (k = 9 trees at load
    // hint 2) on every zoo graph that is not a clique (cliques take the
    // closed-form star packing).
    let packable: Vec<&Graph> = graphs.iter().filter(|g| !is_complete(g)).collect();
    let edges: usize = packable.iter().map(|g| g.edge_count()).sum();
    let per_edge_us = |ns: f64| ns / 1e3 / edges as f64;
    let ns = ns_per_op(budget, || {
        for g in &packable {
            black_box(greedy_low_depth_packing(g, 0, 9, 2));
        }
    });
    out.push((
        "netgraph.packing_v1_us_per_edge".into(),
        scaled(ns, per_edge_us),
    ));
    let ns = ns_per_op(budget, || {
        for g in &packable {
            black_box(augmented_low_depth_packing(g, 0, 9, 2));
        }
    });
    out.push((
        "netgraph.packing_v2_us_per_edge".into(),
        scaled(ns, per_edge_us),
    ));
    let ns = ns_per_op(budget, || {
        for g in &graphs {
            black_box(FtCycleCover::build(g, 3));
        }
    });
    out.push((
        "netgraph.cycle_cover_build_ms".into(),
        scaled(ns, |ns| ns / 1e6 / graphs.len() as f64),
    ));
}

fn sketches(budget: Budget, out: &mut Vec<(String, Summary)>) {
    let mut sampler = L0Sampler::new(SketchRandomness::from_seed(11));
    let mut element = 1u64;
    let ns = ns_per_op(budget, || {
        element = element.wrapping_mul(6364136223846793005).wrapping_add(1);
        sampler.update(black_box(element >> 16), 1);
    });
    out.push(("sketches.l0_update_ns".into(), scaled(ns, |ns| ns)));
    let mut sampler = L0Sampler::new(SketchRandomness::from_seed(11));
    for e in [17u64, 4242, 99_001, 7] {
        sampler.update(e, 1);
    }
    let ns = ns_per_op(budget, || {
        black_box(black_box(&sampler).query());
    });
    out.push(("sketches.l0_query_us".into(), scaled(ns, |ns| ns / 1e3)));
    // The sparse-majority correction floor: sparsity 4, a full sketch.
    let mut recovery = SparseRecovery::new(SketchRandomness::from_seed(11), 4);
    for e in [17u64, 4242, 99_001, 7] {
        recovery.update(e, 1);
    }
    assert!(recovery.decode().is_some(), "a 4-sparse vector decodes");
    let ns = ns_per_op(budget, || {
        black_box(black_box(&recovery).decode());
    });
    out.push((
        "sketches.sparse_decode_us".into(),
        scaled(ns, |ns| ns / 1e3),
    ));
}

fn mobile_network(g: &Graph) -> Network {
    Network::new(
        g.clone(),
        AdversaryRole::Byzantine,
        Box::new(RandomMobile::new(1, 7)),
        CorruptionBudget::Mobile { f: 1 },
        7,
    )
}

fn congest_and_interactive(budget: Budget, out: &mut Vec<(String, Summary)>) {
    // The zoo expander under random-mobile f=1, 2 words on every arc.
    let g = GraphDef::expander(24, 8, workloads::TOPOLOGY_SEED)
        .build()
        .expect("zoo expander builds");
    let mut net = mobile_network(&g);
    let mut traffic = Traffic::new(&g);
    let mut round = 0u64;
    let ns = ns_per_op(budget, || {
        round += 1;
        traffic.begin_round(&g);
        for e in g.edges() {
            traffic.send(&g, e.u, e.v, [round, e.u as u64]);
            traffic.send(&g, e.v, e.u, [round, e.v as u64]);
        }
        net.exchange_in_place(&mut traffic);
    });
    let arc_words = (g.arc_count() * 2) as f64;
    out.push((
        "congest.exchange_ns_per_arc_word".into(),
        scaled(ns, |ns| ns / arc_words),
    ));
    let mut net = mobile_network(&g);
    let ns = ns_per_op(budget, || {
        traffic.begin_round(&g);
        net.exchange_in_place(&mut traffic);
    });
    out.push((
        "congest.exchange_idle_ns_per_round".into(),
        scaled(ns, |ns| ns),
    ));

    let packing = augmented_low_depth_packing(&g, 0, 9, 2);
    let ns = ns_per_op(budget, || {
        black_box(SchedulePlan::new(black_box(&g), black_box(&packing)));
    });
    out.push((
        "interactive.plan_build_us".into(),
        scaled(ns, |ns| ns / 1e3),
    ));
    let plan = SchedulePlan::new(&g, &packing);
    let rounds = RsScheduler
        .run_planned(&mut mobile_network(&g), &packing, &plan, 8)
        .rounds_used as f64;
    let ns = ns_per_op_with_setup(
        budget,
        || mobile_network(&g),
        |mut net| {
            black_box(RsScheduler.run_planned(&mut net, &packing, &plan, 8));
        },
    );
    out.push((
        "interactive.scheduler_us_per_round".into(),
        scaled(ns, |ns| ns / 1e3 / rounds),
    ));
}

fn harness(budget: Budget, seed: u64, out: &mut Vec<(String, Summary)>) {
    let cache = ArtifactCache::new();
    let g = GraphDef::complete(8).build().expect("K8 builds");
    let compiler = CompilerDef::Uncompiled.build();
    let prepare = || compiler.prepare(&g, &mut TraceSpec::off().build_tracer());
    let key = ArtifactCache::pair_key(
        "{\"family\":\"complete\",\"n\":8}",
        "{\"id\":\"uncompiled\"}",
    );
    cache
        .get_or_prepare(&key, prepare)
        .expect("uncompiled prepares");
    let ns = ns_per_op(budget, || {
        black_box(cache.get_or_prepare(black_box(&key), prepare)).ok();
    });
    out.push(("harness.cache_hit_ns".into(), scaled(ns, |ns| ns)));

    // CellRecord lines of one small served job.
    let report = Campaign::from_spec(&workloads::served_job_spec(seed, 0, true))
        .expect("the served job spec resolves")
        .threads(1)
        .run();
    let records: Vec<CellRecord> = report.cells.iter().map(CellRecord::of).collect();
    let lines: Vec<String> = records.iter().map(CellRecord::to_json).collect();
    let bytes: usize = lines.iter().map(String::len).sum();
    let mb_s = |ns: f64| bytes as f64 / ns * 1e3;
    let ns = ns_per_op(budget, || {
        for line in &lines {
            black_box(CellRecord::from_json(black_box(line)).expect("own lines parse"));
        }
    });
    out.push(("harness.json_parse_mb_s".into(), scaled(ns, mb_s)));
    let ns = ns_per_op(budget, || {
        for record in &records {
            black_box(black_box(record).to_json());
        }
    });
    out.push(("harness.json_encode_mb_s".into(), scaled(ns, mb_s)));
    // The worker pool's fixed cost per cell: a no-op job on two workers (one
    // worker runs inline and costs nothing).
    const CELLS: usize = 4096;
    let ns = ns_per_op(budget, || {
        black_box(mobile_congest::harness::run_indexed(2, CELLS, black_box));
    });
    out.push((
        "harness.engine_ns_per_cell".into(),
        scaled(ns, |ns| ns / CELLS as f64),
    ));
}

fn store(
    budget: Budget,
    seed: u64,
    dir: &Path,
    out: &mut Vec<(String, Summary)>,
) -> Result<(), String> {
    let data_dir = dir.join("probe-store");
    let _ = std::fs::remove_dir_all(&data_dir);
    let fs_store = FsStore::open(&data_dir).map_err(|e| e.to_string())?;
    let spec = workloads::served_job_spec(seed, 0, true);
    let fp = spec.fingerprint();
    fs_store
        .put_spec(&fp, &spec.to_json())
        .map_err(|e| e.to_string())?;
    let report = Campaign::from_spec(&spec)
        .map_err(|e| e.to_string())?
        .threads(1)
        .run_cells(&(0..8).collect::<Vec<_>>());
    let batch: Vec<String> = report
        .cells
        .iter()
        .map(|c| CellRecord::of(c).to_json())
        .collect();
    let mut failed = None;
    let ns = ns_per_op(budget, || {
        if let Err(e) = fs_store.append_cells(&fp, &batch) {
            failed = Some(e.to_string());
        }
    });
    let _ = std::fs::remove_dir_all(&data_dir);
    if let Some(e) = failed {
        return Err(e);
    }
    out.push((
        "campaignd.append_fsync_per_s".into(),
        scaled(ns, |ns| 1e9 / ns),
    ));
    Ok(())
}

/// Tracing overheads on one repetition of `byz-zoo`.  Traced cells bypass
/// the artifact cache, so the untraced side runs without it too: the
/// difference is tracing alone.
fn obs(budget: Budget, seed: u64, quick: bool, out: &mut Vec<(String, Summary)>) {
    let mut spec = workloads::cli_specs("byz-zoo", seed, true).remove(0).1;
    if quick {
        spec.grid.graphs.truncate(2);
    }
    let build = || {
        Campaign::from_spec(&spec)
            .expect("byz-zoo resolves")
            .threads(1)
            .without_artifact_cache()
    };
    let time = |f: &dyn Fn()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let (mut ring_pct, mut jsonl_pct) = (Vec::new(), Vec::new());
    // Interleaved off / ring / ring+jsonl, so a slow window hits all three.
    for _ in 0..budget.reps.min(3) {
        let off = time(&|| {
            black_box(build().run());
        });
        let ring = time(&|| {
            black_box(build().trace(TraceSpec::ring()).run());
        });
        let jsonl = time(&|| {
            let report = build().trace(TraceSpec::ring()).run();
            let mut buf = Vec::new();
            for cell in report.executed() {
                if let Ok(r) = &cell.outcome {
                    r.trace.write_jsonl(&mut buf).expect("in-memory sink");
                }
            }
            black_box(buf);
        });
        ring_pct.push((ring - off) / off * 100.0);
        jsonl_pct.push((jsonl - off) / off * 100.0);
    }
    out.push(("obs.ring_overhead_pct".into(), Summary::of(&ring_pct)));
    out.push(("obs.jsonl_overhead_pct".into(), Summary::of(&jsonl_pct)));
}

/// The two crates no workload blocks on, in-process over their checked-in
/// specs, so they are not dark.
fn side_crates(
    budget: Budget,
    root: &Path,
    out: &mut Vec<(String, Summary)>,
) -> Result<(), String> {
    let read = |name: &str| {
        let path = root.join("specs").join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let spec = CampaignSpec::from_json(&read("async-partial-sync.json")?)
        .map_err(|e| format!("specs/async-partial-sync.json: {e}"))?;
    let campaign = Campaign::from_spec(&spec)
        .map_err(|e| format!("specs/async-partial-sync.json: {e}"))?
        .threads(1);
    let cells = spec.cell_count() as f64;
    let ns = ns_per_op(budget, || {
        black_box(campaign.run());
    });
    out.push((
        "async_exec.cells_per_s".into(),
        scaled(ns, |ns| cells / ns * 1e9),
    ));

    let spec = RedTeamSpec::from_json(&read("redteam-v1-frontier.json")?)
        .map_err(|e| format!("specs/redteam-v1-frontier.json: {e}"))?;
    let redteam = RedTeam::from_spec(&spec)
        .map_err(|e| format!("specs/redteam-v1-frontier.json: {e}"))?
        .threads(1);
    let samples: Vec<f64> = (0..budget.reps.min(3))
        .map(|_| {
            let t0 = Instant::now();
            black_box(redteam.run_units(&[0]));
            1.0 / t0.elapsed().as_secs_f64()
        })
        .collect();
    out.push(("redteam.units_per_s".into(), Summary::of(&samples)));
    Ok(())
}

/// Run every probe; `(metric name, summary)` in catalogue order.
pub fn run_all(
    budget: Budget,
    seed: u64,
    quick: bool,
    dir: &Path,
) -> Result<Vec<(String, Summary)>, String> {
    let mut out = Vec::new();
    coding(budget, &mut out);
    netgraph(budget, &mut out);
    sketches(budget, &mut out);
    congest_and_interactive(budget, &mut out);
    harness(budget, seed, &mut out);
    store(budget, seed, dir, &mut out)?;
    obs(budget, seed, quick, &mut out);
    side_crates(budget, &crate::env::repo_root(), &mut out)?;
    Ok(out)
}
