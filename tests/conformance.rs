//! The paper's bounds that need the whole `Scenario` pipeline, one test per
//! row of the "Paper → module map" in `docs/ARCHITECTURE.md` (the other rows
//! are asserted by their module's own tests; the map names each one).
//!
//! Every bound is derived from the compilers' public parameters — `f`, the
//! packing, the scheduler constants, the adversary's budget — never from a
//! number read off an earlier run.

use mobile_congest::compilers::resilient::CliqueCompiler;
use mobile_congest::compilers::secure::broadcast_packing;
use mobile_congest::graphs::tree_packing::star_packing;
use mobile_congest::graphs::{generators, Graph};
use mobile_congest::icoding::RsScheduler;
use mobile_congest::payloads::{FloodBroadcast, LeaderElection, TokenDissemination};
use mobile_congest::scenario::{BoxedAlgorithm, CompilerDef, CompilerNotes, RunReport, Scenario};
use mobile_congest::sim::adversary::{
    AdversaryRole, AdversaryStrategy, BurstAdversary, CorruptionBudget, CorruptionMode,
    GreedyHeaviest, RandomMobile,
};
use mobile_congest::sim::CongestAlgorithm;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One cell: `payload` on `g` under `adversary`, compiled by `compiler`,
/// with the fault-free reference run kept for the verdict.
fn run<A: CongestAlgorithm + Send + 'static>(
    g: &Graph,
    payload: impl Fn(&Graph) -> A + 'static,
    role: AdversaryRole,
    adversary: impl AdversaryStrategy + 'static,
    budget: CorruptionBudget,
    seed: u64,
    compiler: CompilerDef,
) -> RunReport {
    let pg = g.clone();
    Scenario::on(g.clone())
        .payload_boxed(move || Box::new(payload(&pg)) as BoxedAlgorithm)
        .adversary(role, adversary, budget)
        .seed(seed)
        .compiled_with(compiler)
        .run()
        .expect("the cell runs to completion")
}

/// A byzantine `f`-mobile cell under [`RandomMobile`].
fn byzantine<A: CongestAlgorithm + Send + 'static>(
    g: &Graph,
    f: usize,
    seed: u64,
    payload: impl Fn(&Graph) -> A + 'static,
    compiler: CompilerDef,
) -> RunReport {
    let adversary = RandomMobile::new(f, seed);
    let budget = CorruptionBudget::Mobile { f };
    run(
        g,
        payload,
        AdversaryRole::Byzantine,
        adversary,
        budget,
        seed,
        compiler,
    )
}

/// Theorem 1.3: the compiled run is a local secret exchange of `r + 2·f·r`
/// rounds, a global one (Theorem A.4's broadcast of the hash seed over
/// `broadcast_packing`: `k + 2·f·k` pad rounds, then at most `η` sub-rounds
/// per tree level), and exactly the payload's `r` rounds — with the
/// fault-free outputs.
#[test]
fn congestion_sensitive_rounds_are_the_two_key_exchanges_plus_the_payload() {
    let cases = [
        ("K10", generators::complete(10)),
        ("grid3x4", generators::grid(3, 4)),
    ];
    for f in [1usize, 2] {
        for (name, g) in &cases {
            let def = CompilerDef::CongestionSensitive {
                f,
                words: 2,
                seed: 17,
            };
            let adversary = RandomMobile::new(f, 19);
            let budget = CorruptionBudget::Mobile { f };
            let payload = |g: &Graph| FloodBroadcast::new(g.clone(), 0, 5);
            let report = run(
                g,
                payload,
                AdversaryRole::Eavesdropper,
                adversary,
                budget,
                19,
                def,
            );
            let r = report.payload_rounds;
            let packing = broadcast_packing(g, 0, f);
            let k = packing.len();
            let dissemination_cap = packing.max_height() * packing.load(g);
            let CompilerNotes::CongestionSensitive {
                local_key_rounds,
                global_key_rounds,
                simulation_rounds,
                ..
            } = report.notes
            else {
                panic!("{name} f={f}: notes {:?}", report.notes)
            };
            assert_eq!(report.agrees_with_fault_free(), Some(true), "{name} f={f}");
            assert_eq!(local_key_rounds, r * (2 * f + 1), "{name} f={f}");
            let dissemination = global_key_rounds - k * (2 * f + 1);
            assert!(
                (1..=dissemination_cap).contains(&dissemination),
                "{name} f={f}: {dissemination} dissemination rounds, cap {dissemination_cap}"
            );
            assert_eq!(simulation_rounds, r, "{name} f={f}");
            assert_eq!(
                report.network_rounds,
                local_key_rounds + global_key_rounds + simulation_rounds,
                "{name} f={f}"
            );
        }
    }
}

/// Theorem 3.5: every round fully corrected within budget `f`, at a network
/// round count linear in `f` on the clique (the sparse-recovery sparsity and
/// the broadcast corrections both grow by a fixed amount per unit of `f`).
#[test]
fn tree_packing_corrects_every_round_at_rounds_linear_in_f() {
    let cases = [
        ("K16", generators::complete(16), 16, vec![1usize, 2, 3]),
        ("circ(18,4)", generators::circulant(18, 4), 9, vec![1]),
    ];
    for (name, g, k, fs) in &cases {
        let mut rounds = Vec::new();
        for &f in fs {
            let def = CompilerDef::TreePacking {
                f,
                trees: Some(*k),
                seed: 7,
                packing: Default::default(),
            };
            let leader = |g: &Graph| LeaderElection::new(g.clone());
            let report = byzantine(g, f, 100 + f as u64, leader, def);
            assert!(report.metrics.corrupted_edge_rounds > 0, "{name} f={f}");
            assert_eq!(report.notes.fully_corrected(), Some(true), "{name} f={f}");
            assert_eq!(report.agrees_with_fault_free(), Some(true), "{name} f={f}");
            rounds.push(report.network_rounds);
        }
        for step in rounds.windows(3) {
            assert_eq!(step[2] - step[1], step[1] - step[0], "{name}: {rounds:?}");
        }
        if let [first, second, ..] = rounds[..] {
            assert!(second > first, "{name}: {rounds:?}");
        }
    }
}

/// Theorem 1.6: at `f = max_tolerable_f(n)` — `Θ(n)`, and small enough that
/// a majority of the star packing's `n` trees outlives Lemma 3.3's
/// `t_RS·c_RS·f·η` failures — every round is fully corrected at every `n`.
/// Under a heaviest-edge adversary that fabricates one constant word, the
/// uncompiled run is wrong where the compiled one is not.
#[test]
fn clique_compiler_corrects_every_round_at_the_tolerable_f() {
    for n in [12usize, 16, 24, 32] {
        let g = generators::complete(n);
        let star_load = star_packing(&g, 0).load(&g);
        let f = CliqueCompiler::max_tolerable_f(n);
        assert!(f >= 1, "n={n}");
        assert!(
            2 * RsScheduler::failure_bound(f, star_load) < n,
            "n={n}: f={f} leaves no surviving majority"
        );
        let tokens: Vec<u64> = (0..n as u64).collect();
        let payload =
            move |g: &Graph| TokenDissemination::new(g.clone(), tokens.clone(), g.node_count());
        let report = byzantine(&g, f, n as u64, payload, CompilerDef::Clique { f, seed: 7 });
        assert_eq!(report.notes.fully_corrected(), Some(true), "n={n} f={f}");
        assert_eq!(report.agrees_with_fault_free(), Some(true), "n={n} f={f}");
    }
    for n in [16usize, 20] {
        let g = generators::complete(n);
        let f = 2;
        let cell = |seed: u64, compiler: CompilerDef| {
            let adversary = GreedyHeaviest::new(f).with_mode(CorruptionMode::Constant(424242));
            let budget = CorruptionBudget::Mobile { f };
            let flood = |g: &Graph| FloodBroadcast::new(g.clone(), 0, 777);
            run(
                &g,
                flood,
                AdversaryRole::Byzantine,
                adversary,
                budget,
                seed,
                compiler,
            )
        };
        let plain = cell(1, CompilerDef::Uncompiled);
        assert_eq!(plain.agrees_with_fault_free(), Some(false), "n={n}");
        let compiled = cell(3, CompilerDef::Clique { f, seed: 9 });
        assert_eq!(compiled.agrees_with_fault_free(), Some(true), "n={n}");
    }
}

/// Theorem 1.7 / Lemma 3.10: on random `n/2`-regular graphs the packing
/// built while under attack corrects every round, at every `n`.
#[test]
fn expander_compiler_corrects_every_round_on_random_regular_graphs() {
    for (n, d, k) in [(40usize, 20usize, 5usize), (48, 24, 6), (56, 28, 7)] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let g = generators::random_regular(&mut rng, n, d);
        let def = CompilerDef::Expander {
            f: 1,
            k,
            bfs_rounds: 6,
            seed: 13,
        };
        let leader = |g: &Graph| LeaderElection::new(g.clone());
        let report = byzantine(&g, 1, 77 + n as u64, leader, def);
        assert_eq!(report.notes.fully_corrected(), Some(true), "n={n}");
        assert_eq!(report.agrees_with_fault_free(), Some(true), "n={n}");
    }
}

/// Theorem 4.1: against bursts paid from a total round-error budget, the
/// rewind compiler ends with the fault-free outputs, spends at most the
/// budget, and rewinds at most once per burst the budget can buy.
#[test]
fn rewinds_are_bounded_by_the_bursts_the_budget_buys() {
    let total = 150;
    for (n, quiet, burst, per) in [(12usize, 40usize, 4usize, 10usize), (14, 25, 6, 12)] {
        let g = generators::complete(n);
        let report = run(
            &g,
            |g: &Graph| LeaderElection::new(g.clone()),
            AdversaryRole::Byzantine,
            BurstAdversary::new(quiet, burst, per, 7),
            CorruptionBudget::RoundErrorRate { total },
            7,
            CompilerDef::Rewind { f: 1, seed: 5 },
        );
        let bursts = total.div_ceil(burst * per);
        let rewinds = report.notes.rewinds().expect("rewind notes");
        assert!(
            rewinds <= bursts,
            "n={n}: {rewinds} rewinds, {bursts} bursts"
        );
        assert!(report.metrics.corrupted_edge_rounds > 0, "n={n}");
        assert!(report.metrics.corrupted_edge_rounds <= total, "n={n}");
        assert_eq!(report.agrees_with_fault_free(), Some(true), "n={n}");
    }
}
