//! Experiment harness: regenerates the quantitative claims of the paper
//! (EXPERIMENTS.md maps every table printed here to a theorem/lemma).
//!
//! The paper has no empirical tables of its own — every "figure" here is the
//! measurable shape of a theorem: round overheads, tolerated fault counts,
//! correctness of compiled vs. uncompiled runs, mismatch decay, packing
//! quality.  Every compiled execution is configured through the unified
//! `Scenario` pipeline; low-level primitives (unicast, broadcast, scheduler,
//! correction procedures) draw their validated `Network` from
//! `Scenario::…::network()`.  Run with `cargo bench` (the harness is plain
//! `main`, no criterion statistics are needed for discrete round counts).

use mobile_congest::compilers::resilient::{
    l0_threshold_correction, sparse_majority_correction, CorrectionContext,
};
use mobile_congest::compilers::secure::{
    mobile_secure_broadcast, mobile_secure_multicast, mobile_secure_unicast, UnicastInstance,
};
use mobile_congest::graphs::connectivity::{edge_connectivity, estimate_dtp, sweep_conductance};
use mobile_congest::graphs::generators;
use mobile_congest::graphs::tree_packing::{greedy_low_depth_packing, star_packing};
use mobile_congest::graphs::Graph;
use mobile_congest::harness::Campaign;
use mobile_congest::icoding::{RsScheduler, SchedulePlan};
use mobile_congest::payloads::{FloodBroadcast, LeaderElection, TokenDissemination};
use mobile_congest::scenario::{
    BoxedAlgorithm, CliqueAdapter, Compiler, CongestionSensitiveAdapter, CycleCoverAdapter,
    ExpanderAdapter, RewindAdapter, RunReport, Scenario, StaticToMobileAdapter, TreePackingAdapter,
    Uncompiled,
};
use mobile_congest::sim::adversary::{
    AdversaryRole, BurstAdversary, CorruptionBudget, CorruptionMode, GreedyHeaviest, RandomMobile,
};
use mobile_congest::sim::network::Network;
use mobile_congest::sim::traffic::Traffic;
use mobile_congest::sketch::{L0Sampler, SketchRandomness, SparseRecovery};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// One compiled byzantine run through the pipeline.
fn byz_scenario<C, P, A>(g: &Graph, f: usize, seed: u64, compiler: C, payload: P) -> RunReport
where
    C: Compiler + 'static,
    P: Fn(&Graph) -> A + 'static,
    A: mobile_congest::sim::CongestAlgorithm + Send + 'static,
{
    let pg = g.clone();
    Scenario::on(g.clone())
        .payload(move || payload(&pg))
        .adversary(
            AdversaryRole::Byzantine,
            RandomMobile::new(f, seed),
            CorruptionBudget::Mobile { f },
        )
        .seed(seed)
        .compiled_with(compiler)
        .run()
        .expect("byzantine scenario failed validation")
}

/// One compiled eavesdropper run through the pipeline.
fn eaves_scenario<C, P, A>(g: &Graph, f: usize, seed: u64, compiler: C, payload: P) -> RunReport
where
    C: Compiler + 'static,
    P: Fn(&Graph) -> A + 'static,
    A: mobile_congest::sim::CongestAlgorithm + Send + 'static,
{
    let pg = g.clone();
    Scenario::on(g.clone())
        .payload(move || payload(&pg))
        .adversary(
            AdversaryRole::Eavesdropper,
            RandomMobile::new(f, seed),
            CorruptionBudget::Mobile { f },
        )
        .seed(seed)
        .compiled_with(compiler)
        .run()
        .expect("eavesdropper scenario failed validation")
}

/// A validated network for the low-level primitives (unicast, broadcast,
/// scheduler, correction), replacing hand-wired `Network::new`.
fn primitive_net(g: &Graph, role: AdversaryRole, f: usize, seed: u64) -> Network {
    Scenario::on(g.clone())
        .adversary(
            role,
            RandomMobile::new(f, seed),
            CorruptionBudget::Mobile { f },
        )
        .seed(seed)
        .network()
        .expect("network configuration failed validation")
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// E1 — Theorem 2.1: bit extraction yields exactly n−t hidden keys.
fn e1_bit_extraction() {
    header("E1", "Vandermonde bit extraction (Thm 2.1)");
    println!("{:>6} {:>6} {:>10} {:>12}", "n", "t", "keys", "micros");
    for &(n, t) in &[(16usize, 4usize), (64, 16), (128, 64), (256, 32)] {
        let ex = mobile_congest::codes::BitExtractor::<mobile_congest::codes::Gf2_16>::new(n, t)
            .unwrap();
        let pads: Vec<_> = (0..n as u64)
            .map(mobile_congest::codes::Gf2_16::from_u64)
            .collect();
        let t0 = Instant::now();
        let keys = ex.extract(&pads).unwrap();
        println!(
            "{:>6} {:>6} {:>10} {:>12}",
            n,
            t,
            keys.len(),
            t0.elapsed().as_micros()
        );
        assert_eq!(keys.len(), n - t);
    }
    use mobile_congest::codes::field::Field;
    let _ = mobile_congest::codes::Gf2_16::ZERO;
}

/// E2 — Theorem 1.2: compiled rounds 2r+t and tolerated mobility f'.
fn e2_static_to_mobile() {
    header("E2", "static→mobile secure simulation (Thm 1.2)");
    println!("{}", RunReport::table_header());
    for (name, g) in [
        ("cycle16", generators::cycle(16)),
        ("grid4x4", generators::grid(4, 4)),
        ("K12", generators::complete(12)),
    ] {
        for &t in &[2usize, 8, 32] {
            let report = eaves_scenario(&g, 2, 3, StaticToMobileAdapter::new(t, 2, 7), |g| {
                FloodBroadcast::new(g.clone(), 0, 99)
            });
            let compiler = mobile_congest::compilers::secure::StaticToMobileCompiler::new(t, 2, 7);
            println!(
                "{}   [{name}, t={t}: key rounds {}, f'(f_static=4) = {}]",
                report.table_row(),
                report.network_rounds - report.payload_rounds,
                compiler.mobile_tolerance(4, report.payload_rounds)
            );
        }
    }
}

/// E3 — Lemma A.3: mobile-secure unicast rounds ≈ O(D), congestion O(1); multicast O(D+R).
fn e3_secure_unicast() {
    header("E3", "mobile-secure unicast / multicast (Lemma A.3)");
    println!(
        "{:>10} {:>4} {:>8} {:>10} {:>10}",
        "graph", "D", "rounds", "congestion", "ok"
    );
    for &(name, ref g, d) in &[
        ("path16", generators::path(16), 15usize),
        ("cycle20", generators::cycle(20), 10),
        ("grid5x5", generators::grid(5, 5), 8),
        ("K12", generators::complete(12), 1),
    ] {
        let mut net = primitive_net(g, AdversaryRole::Eavesdropper, 1, 5);
        let rep = mobile_secure_unicast(&mut net, 0, g.node_count() - 1, 0xABCDEF, 9);
        println!(
            "{:>10} {:>4} {:>8} {:>10} {:>10}",
            name,
            d,
            rep.rounds,
            rep.congestion,
            rep.recovered[0] == Some(0xABCDEF)
        );
    }
    println!("{:>10} {:>6} {:>8}", "multicast", "R", "rounds");
    for &r_count in &[2usize, 5, 10] {
        let g = generators::complete(12);
        let instances: Vec<UnicastInstance> = (1..=r_count)
            .map(|i| UnicastInstance {
                source: 0,
                target: i,
                secret: 100 + i as u64,
            })
            .collect();
        let mut net = primitive_net(&g, AdversaryRole::Eavesdropper, 2, 11);
        let rep = mobile_secure_multicast(&mut net, &instances, 13);
        let ok = instances
            .iter()
            .enumerate()
            .all(|(i, inst)| rep.recovered[i] == Some(inst.secret));
        println!(
            "{:>10} {:>6} {:>8}   all-recovered={ok}",
            "K12", r_count, rep.rounds
        );
    }
}

/// E4 — Theorem A.4: secure broadcast round scaling in f and b.
fn e4_secure_broadcast() {
    header(
        "E4",
        "mobile-secure broadcast (Thm A.4, substituted packing)",
    );
    println!(
        "{:>10} {:>4} {:>4} {:>10} {:>12} {:>8}",
        "graph", "f", "b", "key rnds", "diss rnds", "ok"
    );
    for &f in &[1usize, 2, 3] {
        for &b in &[1usize, 4] {
            let g = generators::complete(14);
            let secret: Vec<u64> = (0..b as u64).map(|i| 0xA000 + i).collect();
            let mut net = primitive_net(&g, AdversaryRole::Eavesdropper, f, 3 + f as u64);
            let (_, rep) = mobile_secure_broadcast(&mut net, 0, &secret, f, 21);
            println!(
                "{:>10} {:>4} {:>4} {:>10} {:>12} {:>8}",
                "K14", f, b, rep.key_rounds, rep.dissemination_rounds, rep.all_recovered
            );
        }
    }
}

/// E5 — Theorem 1.3: congestion-sensitive compiler overhead.
fn e5_congestion_compiler() {
    header("E5", "congestion-sensitive secure compiler (Thm 1.3)");
    println!("{}", RunReport::table_header());
    for &f in &[1usize, 2] {
        for (name, g) in [
            ("K10", generators::complete(10)),
            ("grid3x4", generators::grid(3, 4)),
        ] {
            let report =
                eaves_scenario(&g, f, 19, CongestionSensitiveAdapter::new(f, 2, 17), |g| {
                    FloodBroadcast::new(g.clone(), 0, 5)
                });
            println!("{}   [{name}]", report.table_row());
        }
    }
}

/// E6 — Appendix C / Theorem 3.1: tree packing quality.
fn e6_tree_packing() {
    header("E6", "low-depth tree packings (Appendix C / Thm 3.1)");
    println!(
        "{:>12} {:>4} {:>6} {:>6} {:>8} {:>8}",
        "graph", "k", "lambda", "D_TP", "load", "height"
    );
    for &(name, ref g, k) in &[
        ("K16", generators::complete(16), 8usize),
        ("circ(20,3)", generators::circulant(20, 3), 4),
        ("circ(24,4)", generators::circulant(24, 4), 6),
        ("hcube(5)", generators::hypercube(5), 4),
    ] {
        let lambda = edge_connectivity(g);
        let dtp = estimate_dtp(g, k)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        let p = greedy_low_depth_packing(g, 0, k, 2);
        println!(
            "{:>12} {:>4} {:>6} {:>6} {:>8} {:>8}",
            name,
            k,
            lambda,
            dtp,
            p.load(g),
            p.max_height()
        );
    }
}

/// E7 — Theorem 3.5: mobile byzantine compiler — correctness and overhead vs f.
fn e7_tree_compiler() {
    header("E7", "f-mobile byzantine compiler (Thm 3.5)");
    println!("{}", RunReport::table_header());
    let cases: [(&str, Graph, usize, Vec<usize>); 2] = [
        ("K16", generators::complete(16), 16, vec![1, 2, 3]),
        ("circ(18,4)", generators::circulant(18, 4), 9, vec![1]),
    ];
    for (name, g, k, fs) in &cases {
        for &f in fs {
            let report = byz_scenario(
                g,
                f,
                100 + f as u64,
                TreePackingAdapter::new(f, 7).with_trees(*k),
                |g| LeaderElection::new(g.clone()),
            );
            println!("{}   [{name}]", report.table_row());
        }
    }
}

/// E8 — Theorem 1.6: clique compiler scaling with n (f = Θ(n)).
fn e8_clique_scaling() {
    header("E8", "CONGESTED CLIQUE compiler, f = Θ(n) (Thm 1.6)");
    println!("{}", RunReport::table_header());
    for &n in &[12usize, 16, 24, 32] {
        let g = generators::complete(n);
        let f = mobile_congest::compilers::resilient::CliqueCompiler::max_tolerable_f(n).max(1);
        let tokens: Vec<u64> = (0..n as u64).collect();
        let report = byz_scenario(&g, f, n as u64, CliqueAdapter::new(f, 7), move |g| {
            TokenDissemination::new(g.clone(), tokens.clone(), g.node_count())
        });
        println!("{}   [n={n}]", report.table_row());
    }
}

/// E9 — Theorem 1.7 / Lemma 3.10: expander weak packings and compiler.
fn e9_expander() {
    header("E9", "expander compiler (Thm 1.7 / Lemma 3.10)");
    println!("{}", RunReport::table_header());
    for &(n, d, k) in &[(40usize, 20usize, 5usize), (48, 24, 6), (56, 28, 7)] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let g = generators::random_regular(&mut rng, n, d);
        let phi = sweep_conductance(&g, 150).unwrap_or(0.0);
        let report = byz_scenario(
            &g,
            1,
            77 + n as u64,
            ExpanderAdapter::new(1, k, 6, 13),
            |g| LeaderElection::new(g.clone()),
        );
        println!("{}   [n={n} deg={d} phi={phi:.3}]", report.table_row());
    }
}

/// E10 — Theorem 1.4: cycle-cover compiler (dilation/congestion growth with f).
fn e10_cycle_cover() {
    header("E10", "FT-cycle-cover compiler (Thm 1.4 / 5.5)");
    println!("{}", RunReport::table_header());
    for (name, g, f) in [
        ("circ(9,2)", generators::circulant(9, 2), 1usize),
        ("circ(11,3)", generators::circulant(11, 3), 2),
        ("K8", generators::complete(8), 1),
    ] {
        let pg = g.clone();
        let outcome = Scenario::on(g.clone())
            .payload(move || FloodBroadcast::new(pg.clone(), 0, 3))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(f, 5).with_mode(CorruptionMode::Constant(9)),
                CorruptionBudget::Mobile { f },
            )
            .seed(5)
            .compiled_with(CycleCoverAdapter::new(f))
            .run();
        match outcome {
            Ok(report) => println!("{}   [{name}]", report.table_row()),
            Err(e) => println!("{name}: {e}"),
        }
    }
}

/// E11 — Theorem 4.1: rewind compiler against bursty round-error-rate adversaries.
fn e11_rewind() {
    header("E11", "round-error-rate rewind compiler (Thm 4.1)");
    println!("{}", RunReport::table_header());
    for &(n, quiet, burst, per) in &[(12usize, 40usize, 4usize, 10usize), (14, 25, 6, 12)] {
        let g = generators::complete(n);
        let budget = 150;
        let pg = g.clone();
        let report = Scenario::on(g.clone())
            .payload(move || LeaderElection::new(pg.clone()))
            .adversary(
                AdversaryRole::Byzantine,
                BurstAdversary::new(quiet, burst, per, 7),
                CorruptionBudget::RoundErrorRate { total: budget },
            )
            .seed(7)
            .compiled_with(RewindAdapter::new(1, 5))
            .run()
            .expect("rewind scenario failed");
        println!("{}   [n={n}, budget={budget}]", report.table_row());
    }
}

/// E12 — Lemma 3.8: geometric decay of mismatches in the ℓ0 correction.
fn e12_mismatch_decay() {
    header(
        "E12",
        "mismatch decay of the l0-threshold correction (Lemma 3.8)",
    );
    let g = generators::complete(20);
    let packing = star_packing(&g, 0);
    let ctx = CorrectionContext::new(&g, &packing);
    for &f in &[1usize, 2] {
        let mut net = primitive_net(&g, AdversaryRole::Byzantine, f, 31 + f as u64);
        let mut sent = Traffic::new(&g);
        for v in g.nodes() {
            for &(u, _) in g.neighbors(v) {
                sent.send(&g, v, u, vec![(v as u64) << 8 | u as u64]);
            }
        }
        let received = net.exchange(sent.clone());
        let (_, rep) =
            l0_threshold_correction(&mut net, &ctx, &packing, &sent, &received, f, 8, 41);
        println!("f={f}  B_j trace = {:?}", rep.decay);
    }
    // The sparse-majority variant for comparison (single-shot).
    for &f in &[1usize, 2, 3] {
        let mut net = primitive_net(&g, AdversaryRole::Byzantine, f, 51 + f as u64);
        let mut sent = Traffic::new(&g);
        for v in g.nodes() {
            for &(u, _) in g.neighbors(v) {
                sent.send(&g, v, u, vec![v as u64 + 1]);
            }
        }
        let received = net.exchange(sent.clone());
        let (_, rep) =
            sparse_majority_correction(&mut net, &ctx, &packing, &sent, &received, 8 * f, 61);
        println!(
            "sparse-majority f={f}: before={} after={} rounds={}",
            rep.mismatches_before, rep.mismatches_after, rep.rounds
        );
    }
}

/// E13 — Theorem 3.4: sketch behaviour (uniformity and exact recovery).
fn e13_sketches() {
    header("E13", "l0-sampler uniformity and sparse recovery (Thm 3.4)");
    let support: Vec<u64> = (1..=10).collect();
    let counts = mobile_congest::sketch::l0::empirical_sample_counts(&support, 3000, 9);
    let total: usize = counts.values().sum();
    let min = support
        .iter()
        .map(|e| *counts.get(e).unwrap_or(&0))
        .min()
        .unwrap();
    let max = support
        .iter()
        .map(|e| *counts.get(e).unwrap_or(&0))
        .max()
        .unwrap();
    println!("l0 sampler over 10 elements, 3000 trials: success={total}, min bucket={min}, max bucket={max}");
    let mut sr = SparseRecovery::new(SketchRandomness::from_seed(3), 16);
    for e in 0..12u64 {
        sr.update(e * 7 + 1, (e as i64) - 5);
    }
    println!(
        "sparse recovery of 12-element stream decodes exactly: {}",
        sr.decode().is_some()
    );
    let mut l0 = L0Sampler::new(SketchRandomness::from_seed(4));
    l0.update(42, 1);
    println!("singleton recovery: {:?}", l0.query());
}

/// E14 — Lemma 3.3: RS-scheduler failure counts vs the analytical bound.
fn e14_scheduler() {
    header("E14", "RS-scheduler failures vs Lemma 3.3 bound");
    println!("{:>6} {:>4} {:>10} {:>10}", "n", "f", "failures", "bound");
    for &(n, f) in &[(16usize, 1usize), (16, 2), (24, 3), (32, 4)] {
        let g = generators::complete(n);
        let packing = star_packing(&g, 0);
        let eta = packing.load(&g);
        let mut net = primitive_net(&g, AdversaryRole::Byzantine, f, 7 + n as u64);
        let plan = SchedulePlan::new(&g, &packing);
        let report = RsScheduler.run_planned(&mut net, &packing, &plan, 10);
        println!(
            "{:>6} {:>4} {:>10} {:>10}",
            n,
            f,
            packing.len() - report.success_count(),
            RsScheduler::failure_bound(f, eta)
        );
    }
}

/// E15 — who wins: uncompiled vs repetition baseline vs mobile compiler.
fn e15_baselines() {
    header(
        "E15",
        "baseline comparison under a mobile byzantine adversary",
    );
    println!(
        "{:>6} {:>4} {:>12} {:>12} {:>12}",
        "n", "f", "uncompiled", "repetition", "compiled"
    );
    for &(n, f) in &[(16usize, 2usize), (20, 2)] {
        let g = generators::complete(n);
        // The adversary fabricates plausible-looking broadcast values on the
        // edges it controls — the attack the compilers are designed to defeat.
        let run_cell = |seed: u64, compiler: Box<dyn Compiler>| {
            let pg = g.clone();
            Scenario::on(g.clone())
                .payload_boxed(move || {
                    Box::new(FloodBroadcast::new(pg.clone(), 0, 777)) as BoxedAlgorithm
                })
                .adversary(
                    AdversaryRole::Byzantine,
                    GreedyHeaviest::new(f).with_mode(CorruptionMode::Constant(424242)),
                    CorruptionBudget::Mobile { f },
                )
                .seed(seed)
                .compiled_with_boxed(compiler)
                .run()
                .expect("baseline cell failed validation")
        };
        // Uncompiled.
        let uncompiled = run_cell(1, Box::new(Uncompiled));
        let expected = uncompiled.fault_free.clone().unwrap();
        // Naive repetition baseline: run the algorithm 3 times and majority-vote outputs.
        let rep_outputs: Vec<_> = (0..3u64)
            .map(|s| run_cell(s, Box::new(Uncompiled)).outputs)
            .collect();
        let repetition = (0..g.node_count())
            .map(|v| {
                let vals: Vec<_> = rep_outputs.iter().map(|o| o[v].clone()).collect();
                if vals[0] == vals[1] || vals[0] == vals[2] {
                    vals[0].clone()
                } else {
                    vals[1].clone()
                }
            })
            .collect::<Vec<_>>()
            == expected;
        // Mobile compiler.
        let compiled = run_cell(3, Box::new(CliqueAdapter::new(f, 9)));
        println!(
            "{:>6} {:>4} {:>12} {:>12} {:>12}",
            n,
            f,
            uncompiled.agrees_with_fault_free() == Some(true),
            repetition,
            compiled.agrees_with_fault_free() == Some(true)
        );
    }
}

/// E16 — the deterministic parallel campaign engine over the expanded
/// topology × adversary zoo: every graph family (clique, circulant, grid,
/// torus, expander, small world, ring of cliques, barbell) × every adversary
/// family (random / sweeping / greedy / adaptive / eclipse / bursty /
/// eavesdropping) × compilers, with seed repetitions, fanned across every
/// core, aggregated (mean/min/max/p50/p99, including the typed
/// `CompilerNotes` facets) and exported as a JSONL trajectory.
fn e16_campaign() -> (String, f64) {
    use mobile_congest::scenario::matrix::{adversary_zoo, graph_zoo, CompilerSpec};
    header(
        "E16",
        "parallel campaign engine (topology x adversary zoo, 4 repetitions, all cores)",
    );
    let campaign = Campaign::new(2024)
        .graphs(graph_zoo(2024))
        .adversaries(adversary_zoo(1))
        .compilers(vec![
            CompilerSpec::of(Uncompiled),
            CompilerSpec::of(CliqueAdapter::new(1, 5)),
            // Both packings on identical cells: v1 keeps the known frontier
            // pinned, v2 must close it.
            CompilerSpec::of(
                TreePackingAdapter::new(1, 5)
                    .with_packing(mobile_congest::graphs::PackingVersion::V1Greedy),
            ),
            CompilerSpec::of(TreePackingAdapter::new(1, 5)),
            CompilerSpec::of(CycleCoverAdapter::new(1)),
            CompilerSpec::of(StaticToMobileAdapter::new(4, 2, 5)),
        ])
        .payload(|g| Box::new(FloodBroadcast::new(g.clone(), 0, 4242)) as BoxedAlgorithm)
        .repetitions(4);

    let t0 = Instant::now();
    let report = campaign.run();
    let wall = t0.elapsed().as_secs_f64();
    let summaries = report.summaries();
    print!("{}", report.to_table_with(&summaries));
    let diverging = report
        .executed()
        .filter(|c| matches!(&c.outcome, Ok(r) if !r.protected_cell_ok()))
        .count();
    println!(
        "{} cells ({} skipped) on {} workers in {wall:.2}s; diverging protected cells: {} \
         (tree-packing v1 on the sparse small-world topology under targeted attacks — the \
         baseline frontier pinned by tests/harness_campaign.rs; v2 corrects every cell)",
        report.cells.len(),
        report.skipped_count(),
        mobile_congest::harness::default_threads(),
        diverging,
    );

    // The bench trajectory: per-cell lines plus per-group summaries.
    let jsonl = report.to_jsonl_with(&summaries);
    let path = std::path::Path::new("target").join("campaign-trajectory.jsonl");
    match std::fs::write(&path, &jsonl) {
        Ok(()) => println!(
            "wrote {} JSONL lines to {}",
            jsonl.lines().count(),
            path.display()
        ),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
    (report.fingerprint(), wall)
}

/// E16b — scenario-as-data overhead: the identical E16 grid, but described
/// as a serializable `CampaignSpec` and resolved through the registries
/// (`Campaign::from_spec`).  The report must be byte-identical to the
/// hand-built run, and the spec path's wall-clock overhead is the tracked
/// quantity (target: ≤1% delta — the def resolution is a few dozen
/// allocations against a multi-second grid).
fn e16b_spec_campaign(hand_fingerprint: &str, hand_secs: f64) {
    use mobile_congest::harness::{CampaignSpec, GridSpec, PayloadDef};
    use mobile_congest::scenario::matrix::{adversary_zoo_defs, graph_zoo_defs};
    use mobile_congest::scenario::CompilerDef;

    header("E16b", "spec-driven campaign vs hand-built (same grid)");
    let spec = CampaignSpec {
        seed: 2024,
        repetitions: 4,
        grid: GridSpec {
            graphs: graph_zoo_defs(2024),
            adversaries: adversary_zoo_defs(1),
            compilers: vec![
                CompilerDef::Uncompiled,
                CompilerDef::Clique { f: 1, seed: 5 },
                CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 5,
                    packing: mobile_congest::graphs::PackingVersion::V1Greedy,
                },
                CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 5,
                    packing: mobile_congest::graphs::PackingVersion::V2Augmented,
                },
                CompilerDef::CycleCover { f: 1 },
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
            ],
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 4242,
            },
        },
    };
    let t0 = Instant::now();
    let report = Campaign::from_spec(&spec)
        .expect("the E16 grid spec resolves")
        .run();
    let spec_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.fingerprint(),
        hand_fingerprint,
        "the spec-built campaign must be byte-identical to the hand-built one"
    );
    let delta_pct = (spec_secs - hand_secs) / hand_secs * 100.0;
    println!(
        "hand-built {:.2}s, spec-driven {:.2}s, delta {:+.2}% (target <= 1%); \
         fingerprints byte-identical over {} cells",
        hand_secs,
        spec_secs,
        delta_pct,
        report.cells.len()
    );
    println!(
        "BENCH {{\"bench\":\"e16b-spec-overhead\",\"hand_s\":{hand_secs:.4},\"spec_s\":{spec_secs:.4},\"delta_pct\":{delta_pct:.3},\"spec_fingerprint\":\"{}\"}}",
        spec.fingerprint()
    );
}

/// E16c — tree-packing v1 vs v2: construction cost and correction strength.
/// v2 is the greedy packing plus the augmenting-path repair pass, so its
/// extra wall time is the price of closing the small-world frontier; the
/// correction half replays the frontier cell (sparse small world × targeted
/// heaviest-edge adversaries) under both packings.  Emits the `BENCH_5` perf
/// line (also written to `target/BENCH_5.json`) that starts the packing
/// bench trajectory.
fn e16c_packing_ab() {
    use mobile_congest::graphs::tree_packing::{
        augmented_low_depth_packing, greedy_low_depth_packing, load_floor,
    };
    use mobile_congest::graphs::{GraphDef, PackingVersion};
    use mobile_congest::sim::adversary::AdaptiveHeaviest;

    header(
        "E16c",
        "tree packing v1 vs v2 (construction cost + correction)",
    );
    let k = 9;
    const REPS: usize = 25;
    println!(
        "{:>18} {:>6} {:>10} {:>10} {:>8} {:>8}",
        "graph", "floor", "v1 ms/it", "v2 ms/it", "v1 load", "v2 load"
    );
    let (mut v1_ms_total, mut v2_ms_total) = (0.0f64, 0.0f64);
    let (mut v1_load_frontier, mut v2_load_frontier) = (0usize, 0usize);
    for def in [
        GraphDef::watts_strogatz(24, 6, 0.2, 2024 ^ 0x5A11),
        GraphDef::circulant(18, 4),
        GraphDef::expander(24, 8, 2024),
    ] {
        let g = def.build().expect("bench graphs resolve");
        let t0 = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(greedy_low_depth_packing(&g, 0, k, 2));
        }
        let v1_ms = t0.elapsed().as_secs_f64() * 1e3 / REPS as f64;
        let t0 = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(augmented_low_depth_packing(&g, 0, k, 2));
        }
        let v2_ms = t0.elapsed().as_secs_f64() * 1e3 / REPS as f64;
        let v1 = greedy_low_depth_packing(&g, 0, k, 2);
        let v2 = augmented_low_depth_packing(&g, 0, k, 2);
        if def.display_name().starts_with("small-world") {
            v1_load_frontier = v1.load(&g);
            v2_load_frontier = v2.load(&g);
        }
        v1_ms_total += v1_ms;
        v2_ms_total += v2_ms;
        println!(
            "{:>18} {:>6} {:>10.3} {:>10.3} {:>8} {:>8}",
            def.display_name(),
            load_floor(&g, k),
            v1_ms,
            v2_ms,
            v1.load(&g),
            v2.load(&g)
        );
    }

    // Correction strength on the frontier cell, A/B over seeds.
    let frontier = GraphDef::watts_strogatz(24, 6, 0.2, 2024 ^ 0x5A11)
        .build()
        .unwrap();
    let mut corrected = [0usize; 2];
    const CELLS: usize = 6;
    for (vi, version) in [PackingVersion::V1Greedy, PackingVersion::V2Augmented]
        .into_iter()
        .enumerate()
    {
        for seed in 0..CELLS as u64 {
            let pg = frontier.clone();
            let report = Scenario::on(frontier.clone())
                .payload(move || FloodBroadcast::new(pg.clone(), 0, 4242))
                .adversary(
                    AdversaryRole::Byzantine,
                    AdaptiveHeaviest::new(1),
                    CorruptionBudget::Mobile { f: 1 },
                )
                .seed(1000 + seed)
                .compiled_with(TreePackingAdapter::new(1, 5).with_packing(version))
                .run()
                .expect("frontier cell validates");
            if report.notes.fully_corrected() == Some(true)
                && report.agrees_with_fault_free() == Some(true)
            {
                corrected[vi] += 1;
            }
        }
    }
    let (v1_rate, v2_rate) = (
        corrected[0] as f64 / CELLS as f64,
        corrected[1] as f64 / CELLS as f64,
    );
    println!(
        "frontier correction under adaptive-heaviest: v1 {}/{CELLS}, v2 {}/{CELLS}",
        corrected[0], corrected[1]
    );
    let bench_line = format!(
        "{{\"bench\":\"e16c-packing-v2\",\"v1_pack_ms\":{v1_ms_total:.4},\"v2_pack_ms\":{v2_ms_total:.4},\
         \"v1_frontier_load\":{v1_load_frontier},\"v2_frontier_load\":{v2_load_frontier},\
         \"v1_corrected_rate\":{v1_rate:.3},\"v2_corrected_rate\":{v2_rate:.3}}}"
    );
    println!("BENCH {bench_line}");
    let path = std::path::Path::new("target").join("BENCH_5.json");
    match std::fs::write(&path, format!("{bench_line}\n")) {
        Ok(()) => println!("wrote perf line to {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

/// E16d — trace overhead A/B/C on a compact campaign grid: tracing off (the
/// disabled tracer's single-branch fast path — the default every other
/// experiment runs under), ring-buffer tracing, and ring tracing plus full
/// JSONL serialization of every cell's event stream (what `--trace-dir`
/// writes).  The off-vs-untraced-code delta is the acceptance bound (≤1%);
/// here "off" *is* the instrumented code with tracing disabled, so ring and
/// JSONL overheads are measured against it.  Emits the `BENCH_7` perf line
/// (also written to `target/BENCH_7.json`).
fn e16d_obs_overhead() {
    use mobile_congest::obs;
    use mobile_congest::scenario::matrix::{adversary_zoo, graph_zoo, CompilerSpec};

    header(
        "E16d",
        "trace overhead: off vs ring vs ring+jsonl (same grid)",
    );
    let build = || {
        Campaign::new(2024)
            .graphs(graph_zoo(2024))
            .adversaries(adversary_zoo(1))
            .compilers(vec![
                CompilerSpec::of(Uncompiled),
                CompilerSpec::of(CliqueAdapter::new(1, 5)),
                CompilerSpec::of(TreePackingAdapter::new(1, 5)),
                CompilerSpec::of(StaticToMobileAdapter::new(4, 2, 5)),
            ])
            .payload(|g| Box::new(FloodBroadcast::new(g.clone(), 0, 4242)) as BoxedAlgorithm)
            .repetitions(2)
    };

    // Warm-up pass so the first timed run does not pay cold caches.
    std::hint::black_box(build().run());

    let t0 = Instant::now();
    let off = build().run();
    let off_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let ring = build().trace(obs::TraceSpec::ring()).run();
    let ring_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let jsonl_report = build().trace(obs::TraceSpec::ring()).run();
    let mut jsonl_bytes = 0usize;
    for cell in jsonl_report.executed() {
        if let Ok(r) = &cell.outcome {
            let mut buf = Vec::new();
            r.trace.write_jsonl(&mut buf).expect("in-memory sink");
            jsonl_bytes += std::hint::black_box(buf).len();
        }
    }
    let jsonl_s = t0.elapsed().as_secs_f64();

    let events: u64 = ring
        .executed()
        .filter_map(|c| c.outcome.as_ref().ok())
        .map(|r| r.trace.stats.offered)
        .sum();
    let ring_pct = (ring_s - off_s) / off_s * 100.0;
    let jsonl_pct = (jsonl_s - off_s) / off_s * 100.0;
    println!(
        "{} cells: off {off_s:.2}s, ring {ring_s:.2}s ({ring_pct:+.2}%), \
         ring+jsonl {jsonl_s:.2}s ({jsonl_pct:+.2}%); {events} events offered, \
         {:.2} MiB of JSONL",
        off.cells.len(),
        jsonl_bytes as f64 / (1024.0 * 1024.0)
    );
    let bench_line = format!(
        "{{\"bench\":\"e16d-obs\",\"off_s\":{off_s:.4},\"ring_s\":{ring_s:.4},\
         \"jsonl_s\":{jsonl_s:.4},\"ring_overhead_pct\":{ring_pct:.3},\
         \"jsonl_overhead_pct\":{jsonl_pct:.3},\"events\":{events},\
         \"jsonl_bytes\":{jsonl_bytes}}}"
    );
    println!("BENCH {bench_line}");
    let path = std::path::Path::new("target").join("BENCH_7.json");
    match std::fs::write(&path, format!("{bench_line}\n")) {
        Ok(()) => println!("wrote perf line to {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

/// E16e — campaign-server overhead: submit `specs/e16-small.json` to an
/// in-process `campaignd` (real HTTP over loopback, durable fsync'd store)
/// and compare submit→complete wall time against the direct in-process run
/// of the same spec (target: ≤10% overhead — the price of batching, the
/// store appends and the HTTP round trips).  The two reports must carry the
/// same record fingerprint.  Emits the `BENCH_9` perf line (also written to
/// `target/BENCH_9.json`).
fn e16e_server_overhead() {
    use mobile_congest::campaignd::client::Client;
    use mobile_congest::campaignd::server::{start, Config};
    use mobile_congest::harness::report::ReportRecord;
    use mobile_congest::harness::CampaignSpec;

    header("E16e", "campaign server vs direct run (same spec)");
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/e16-small.json");
    let text = std::fs::read_to_string(spec_path).expect("specs/e16-small.json is checked in");
    let mut spec = CampaignSpec::from_json(&text).expect("the checked-in spec parses");
    // The checked-in spec finishes in single-digit milliseconds — too small
    // to measure amortized overhead (fixed costs like the submit round trip
    // and the completion poll would dominate).  Scale the repetition axis so
    // the direct run takes a meaningful fraction of a second; the overhead
    // target is about throughput, and every added cost (per-batch fsync,
    // HTTP, polling) is exercised at scale.
    spec.repetitions = 200;
    let text = spec.to_json();

    // Both paths are measured as the best of five *interleaved* trials: the
    // engine's wall time on a busy box swings by well over the overhead
    // being measured, and slow windows last long enough to bias whichever
    // path runs entirely inside one.  Alternating direct/server per trial
    // and taking each side's minimum is the standard noise-robust estimator
    // for a deterministic workload.
    const TRIALS: usize = 5;

    let campaign = Campaign::from_spec(&spec).expect("the spec resolves");
    std::hint::black_box(campaign.run());
    // Earlier experiments (E16d in particular) leave tens of MB of dirty
    // pages; the server's fsync'd appends would queue behind them and bill
    // the backlog to this measurement.  Flush first so the overhead number
    // reflects this workload's own durability cost.
    let _ = std::process::Command::new("sync").status();
    let trajectory_path = std::path::Path::new("target").join("bench-e16e-trajectory.jsonl");
    let mut direct_s = f64::INFINITY;
    let mut server_s = f64::INFINITY;
    let mut direct = ReportRecord { cells: Vec::new() };
    for trial in 0..TRIALS {
        // The direct baseline: what the one-shot `campaign` CLI does — run
        // the grid, compute the summaries, write the trajectory JSONL to
        // disk (the server also persists its cells, so both sides pay for
        // their durable artifact).
        let t0 = Instant::now();
        let direct_report = campaign.run();
        let summaries = direct_report.summaries();
        std::fs::write(&trajectory_path, direct_report.to_jsonl_with(&summaries))
            .expect("trajectory writes");
        direct_s = direct_s.min(t0.elapsed().as_secs_f64());
        direct = ReportRecord::of(&direct_report);

        // The server path: fresh store, real sockets, long-poll to
        // completion.
        let data_dir = std::path::Path::new("target").join(format!("bench-e16e-data-{trial}"));
        let _ = std::fs::remove_dir_all(&data_dir);
        let mut config = Config::new(&data_dir);
        config.quiet = true;
        let handle = start(config).expect("server starts");
        let client = Client::new(handle.addr().to_string());
        let t0 = Instant::now();
        let submitted = client.submit(&text).expect("submit succeeds");
        let done = client
            .watch(&submitted.fingerprint, 1_000, |_| {})
            .expect("job completes");
        server_s = server_s.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            done.report_fingerprint.as_deref(),
            Some(direct.fingerprint()).as_deref(),
            "the server-run report must be byte-identical to the direct run"
        );
        let _ = std::fs::remove_dir_all(&data_dir);
    }
    let _ = std::fs::remove_file(&trajectory_path);

    let overhead_pct = (server_s - direct_s) / direct_s * 100.0;
    println!(
        "{} cells: direct {direct_s:.3}s, server {server_s:.3}s ({overhead_pct:+.2}%, \
         target <= 10%); report fingerprints byte-identical",
        spec.cell_count(),
    );
    let bench_line = format!(
        "{{\"bench\":\"e16e-server\",\"direct_s\":{direct_s:.4},\"server_s\":{server_s:.4},\
         \"overhead_pct\":{overhead_pct:.3},\"cells\":{},\"report_fingerprint\":\"{}\"}}",
        spec.cell_count(),
        direct.fingerprint(),
    );
    println!("BENCH {bench_line}");
    let path = std::path::Path::new("target").join("BENCH_9.json");
    match std::fs::write(&path, format!("{bench_line}\n")) {
        Ok(()) => println!("wrote perf line to {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

/// E16f — compile-artifact cache speedup on the full E16 grid: the same
/// spec-driven campaign with the shared [`ArtifactCache`] disabled (every
/// cell re-runs `Compiler::prepare`, the pre-cache behavior) vs enabled
/// (each distinct `(graph, compiler)` pair prepares exactly once).  Both
/// sides are best-of-five interleaved trials, and their report fingerprints
/// must be byte-identical — the cache is a pure wall-time optimization.
/// Target: ≥2× on full-grid wall time vs the PR 9 reference (the cache plus
/// the precomputed correction contexts and the zero-allocation scheduler
/// path).  Emits the `BENCH_10` perf line (also written to
/// `target/BENCH_10.json`; the fingerprint field is FNV-1a hashed).
fn e16f_artifact_cache() {
    use mobile_congest::harness::{CampaignSpec, GridSpec, PayloadDef};
    use mobile_congest::scenario::matrix::{adversary_zoo_defs, graph_zoo_defs};
    use mobile_congest::scenario::CompilerDef;

    header("E16f", "compile-artifact cache off vs on (same grid)");
    let spec = CampaignSpec {
        seed: 2024,
        repetitions: 4,
        grid: GridSpec {
            graphs: graph_zoo_defs(2024),
            adversaries: adversary_zoo_defs(1),
            compilers: vec![
                CompilerDef::Uncompiled,
                CompilerDef::Clique { f: 1, seed: 5 },
                CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 5,
                    packing: mobile_congest::graphs::PackingVersion::V1Greedy,
                },
                CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 5,
                    packing: mobile_congest::graphs::PackingVersion::V2Augmented,
                },
                CompilerDef::CycleCover { f: 1 },
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
            ],
            payload: PayloadDef::FloodBroadcast {
                source: 0,
                value: 4242,
            },
        },
    };

    // Warm-up so the first timed trial does not pay cold field tables / page
    // faults, then interleave the two sides and take each side's minimum
    // (the noise-robust estimator for a deterministic workload — see E16e).
    std::hint::black_box(Campaign::from_spec(&spec).expect("spec resolves").run());
    const TRIALS: usize = 5;
    let mut off_s = f64::INFINITY;
    let mut on_s = f64::INFINITY;
    let mut off_fingerprint = String::new();
    let mut on_fingerprint = String::new();
    let mut cells = 0usize;
    let mut hits = 0u64;
    let mut misses = 0u64;
    for _ in 0..TRIALS {
        let uncached = Campaign::from_spec(&spec)
            .expect("spec resolves")
            .without_artifact_cache();
        let t0 = Instant::now();
        let report = uncached.run();
        off_s = off_s.min(t0.elapsed().as_secs_f64());
        off_fingerprint = report.fingerprint();
        cells = report.cells.len();

        // A fresh campaign per trial so every trial pays the cold-cache cost.
        let cached = Campaign::from_spec(&spec).expect("spec resolves");
        let t0 = Instant::now();
        let report = cached.run();
        on_s = on_s.min(t0.elapsed().as_secs_f64());
        on_fingerprint = report.fingerprint();
        let cache = cached
            .artifact_cache_handle()
            .expect("spec-built campaigns carry a cache");
        hits = cache.hits();
        misses = cache.misses();
    }
    assert_eq!(
        off_fingerprint, on_fingerprint,
        "the artifact cache must not change campaign results"
    );

    // Full-grid wall time of the same grid at the PR 9 HEAD (e16b spec-driven
    // path, best of interleaved trials, single worker) — the reference the
    // ≥2× acceptance bar is measured against.  Machine-relative: recorded in
    // BENCH_10.json for the trend plot, not asserted (CI machines differ).
    const PR9_SPEC_S: f64 = 3.9523;
    let cache_speedup = off_s / on_s;
    let vs_pr9 = PR9_SPEC_S / on_s;
    let fingerprint_hash = mobile_congest::harness::json::fnv1a_hex(on_fingerprint.bytes());
    println!(
        "{cells} cells: cache off {off_s:.3}s, cache on {on_s:.3}s \
         ({cache_speedup:.2}x from the cache alone); vs PR 9 reference \
         {PR9_SPEC_S:.2}s: {vs_pr9:.2}x (target >= 2x); \
         {hits} hits / {misses} misses per run; fingerprints byte-identical",
    );
    let bench_line = format!(
        "{{\"bench\":\"e16f-artifact-cache\",\"off_s\":{off_s:.4},\"on_s\":{on_s:.4},\
         \"cache_speedup\":{cache_speedup:.3},\"pr9_spec_s\":{PR9_SPEC_S},\
         \"vs_pr9\":{vs_pr9:.3},\"cells\":{cells},\"hits\":{hits},\
         \"misses\":{misses},\"fingerprint\":\"{fingerprint_hash}\"}}"
    );
    println!("BENCH {bench_line}");
    let path = std::path::Path::new("target").join("BENCH_10.json");
    match std::fs::write(&path, format!("{bench_line}\n")) {
        Ok(()) => println!("wrote perf line to {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let t0 = Instant::now();
    e1_bit_extraction();
    e2_static_to_mobile();
    e3_secure_unicast();
    e4_secure_broadcast();
    e5_congestion_compiler();
    e6_tree_packing();
    e7_tree_compiler();
    e8_clique_scaling();
    e9_expander();
    e10_cycle_cover();
    e11_rewind();
    e12_mismatch_decay();
    e13_sketches();
    e14_scheduler();
    e15_baselines();
    let (e16_fingerprint, e16_secs) = e16_campaign();
    e16b_spec_campaign(&e16_fingerprint, e16_secs);
    e16c_packing_ab();
    e16d_obs_overhead();
    e16e_server_overhead();
    e16f_artifact_cache();
    println!(
        "\ntotal experiment time: {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
