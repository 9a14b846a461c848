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
    broadcast_packing, mobile_secure_broadcast, mobile_secure_multicast, mobile_secure_unicast,
    UnicastInstance,
};
use mobile_congest::graphs::connectivity::{edge_connectivity, estimate_dtp, sweep_conductance};
use mobile_congest::graphs::generators;
use mobile_congest::graphs::tree_packing::{greedy_low_depth_packing, star_packing};
use mobile_congest::graphs::Graph;
use mobile_congest::icoding::{RsScheduler, SchedulePlan};
use mobile_congest::payloads::{FloodBroadcast, LeaderElection, TokenDissemination};
use mobile_congest::scenario::{
    BoxedAlgorithm, Compiler, CompilerDef, RunReport, Scenario, Uncompiled,
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
            let report = eaves_scenario(
                &g,
                2,
                3,
                CompilerDef::StaticToMobile {
                    t,
                    words: 2,
                    seed: 7,
                },
                |g| FloodBroadcast::new(g.clone(), 0, 99),
            );
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
            let packing = broadcast_packing(&g, 0, f);
            let (_, rep) = mobile_secure_broadcast(&mut net, 0, &secret, f, 21, &packing)
                .expect("the pad exchange fits GF(2^16)");
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
            let report = eaves_scenario(
                &g,
                f,
                19,
                CompilerDef::CongestionSensitive {
                    f,
                    words: 2,
                    seed: 17,
                },
                |g| FloodBroadcast::new(g.clone(), 0, 5),
            );
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
                CompilerDef::TreePacking {
                    f,
                    trees: Some(*k),
                    seed: 7,
                    packing: Default::default(),
                },
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
        let report = byz_scenario(
            &g,
            f,
            n as u64,
            CompilerDef::Clique { f, seed: 7 },
            move |g| TokenDissemination::new(g.clone(), tokens.clone(), g.node_count()),
        );
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
            CompilerDef::Expander {
                f: 1,
                k,
                bfs_rounds: 6,
                seed: 13,
            },
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
            .compiled_with(CompilerDef::CycleCover { f })
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
            .compiled_with(CompilerDef::Rewind { f: 1, seed: 5 })
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
        let compiled = run_cell(3, Box::new(CompilerDef::Clique { f, seed: 9 }));
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
    println!(
        "\ntotal experiment time: {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
