//! The four named workloads, generated from `--seed`.
//!
//! Everything the measured programs receive is a spec file written from the
//! typed [`CampaignSpec`]s built here; the same seed gives byte-identical
//! files.  Later issues cite the workload names, so they are fixed.
//!
//! The seed drives every campaign seed, and through it every cell's
//! adversary and node randomness.  The *topologies* are the same for every
//! seed (seeded graph families draw from [`TOPOLOGY_SEED`]): whether a
//! random expander happens to admit a packing decides whether its cells run
//! or are skipped, and a workload whose amount of work swings by a factor of
//! two with the seed cannot be compared across seeds.

use mobile_congest::graphs::{GraphDef, PackingVersion};
use mobile_congest::harness::campaign::cell_seed;
use mobile_congest::harness::{CampaignSpec, GridSpec, PayloadDef};
use mobile_congest::scenario::matrix::{adversary_zoo_defs, graph_zoo_defs, AdversaryDef};
use mobile_congest::scenario::CompilerDef;

/// How a workload reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `campaign --spec … --threads 1 --quiet` child per spec file.
    Cli,
    /// Jobs submitted to a `campaignd --threads 1` child over HTTP.
    Served,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// The workloads, in the round-robin order trials interleave them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "byz-zoo",
        kind: Kind::Cli,
    },
    Workload {
        name: "secure-gossip",
        kind: Kind::Cli,
    },
    Workload {
        name: "cold-pairs",
        kind: Kind::Cli,
    },
    Workload {
        name: "served-small",
        kind: Kind::Served,
    },
];

/// The seed the committed golden fingerprints belong to.
pub const DEFAULT_SEED: u64 = 2024;

/// Seeds the randomized graph families, for every `--seed` (2024 is the E16
/// zoo of `benches/experiments.rs`).
pub const TOPOLOGY_SEED: u64 = 2024;

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Independent sub-seeds for the seeded graph families and the served jobs:
/// the program's own `(seed, index)` mixer, on stream numbers instead of
/// cell indices.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    cell_seed(seed, stream as usize)
}

fn flood() -> PayloadDef {
    PayloadDef::FloodBroadcast {
        source: 0,
        value: 4242,
    }
}

fn tree_packing(packing: PackingVersion) -> CompilerDef {
    CompilerDef::TreePacking {
        f: 1,
        trees: None,
        seed: 5,
        packing,
    }
}

/// `byz-zoo`: the exact E16 grid of `benches/experiments.rs` (BENCH_10's
/// reference), so 96 % of its cells hit the artifact cache and the time is
/// pure execute of the Byzantine correction stack.
fn byz_zoo(seed: u64, quick: bool) -> CampaignSpec {
    CampaignSpec {
        seed,
        repetitions: if quick { 1 } else { 4 },
        grid: GridSpec {
            graphs: graph_zoo_defs(TOPOLOGY_SEED),
            adversaries: adversary_zoo_defs(1),
            compilers: vec![
                CompilerDef::Uncompiled,
                CompilerDef::Clique { f: 1, seed: 5 },
                tree_packing(PackingVersion::V1Greedy),
                tree_packing(PackingVersion::V2Augmented),
                CompilerDef::CycleCover { f: 1 },
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
            ],
            payload: flood(),
        },
    }
}

/// `secure-gossip`: long multi-word rounds through key schedule, bit
/// extraction and hashing with no correction or RS-decode work at all.
fn secure_gossip(seed: u64, quick: bool) -> CampaignSpec {
    let graphs = if quick {
        vec![GraphDef::torus(4, 4), GraphDef::complete(12)]
    } else {
        vec![
            GraphDef::expander(48, 8, sub_seed(TOPOLOGY_SEED, 1)),
            GraphDef::torus(6, 6),
            GraphDef::complete(32),
            GraphDef::watts_strogatz(48, 8, 0.2, sub_seed(TOPOLOGY_SEED, 2)),
        ]
    };
    CampaignSpec {
        seed,
        repetitions: 1,
        grid: GridSpec {
            graphs,
            adversaries: vec![AdversaryDef::Eavesdropper { f: 2 }],
            compilers: vec![
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 4,
                    seed: 5,
                },
                CompilerDef::CongestionSensitive {
                    f: 2,
                    words: 4,
                    seed: 5,
                },
            ],
            payload: PayloadDef::TokenDissemination { batch: 2 },
        },
    }
}

/// The distinct graphs of `cold-pairs`: seeded families get a fresh seed per
/// entry, deterministic families a fresh size, so no two entries share an
/// artifact-cache key.
fn cold_graphs(rounds: usize) -> Vec<GraphDef> {
    let mut graphs = Vec::new();
    for i in 0..rounds {
        let s = sub_seed(TOPOLOGY_SEED, 16 + i as u64);
        graphs.push(GraphDef::expander(32, 8, s));
        graphs.push(GraphDef::watts_strogatz(32, 8, 0.2, s ^ 0x5A11));
        graphs.push(GraphDef::complete(10 + i % 11));
        graphs.push(GraphDef::ring_of_cliques(3 + i % 4, 5 + i / 4 % 3));
        graphs.push(GraphDef::torus(4 + i % 3, 4 + i / 3 % 4));
    }
    // Deterministic families repeat their sizes after a while; keep the
    // first occurrence so every entry stays a distinct cache key.
    let mut seen = std::collections::BTreeSet::new();
    graphs.retain(|g| seen.insert(mobile_congest::harness::spec::graph_to_json(g)));
    graphs
}

/// `cold-pairs`: every executed cell is an artifact-cache miss.  Two specs,
/// one per adversary role: in a single grid the cross product would prepare
/// each pair at the cell the role check skips and serve the executed cell
/// from the cache.
///
/// The payload is the 1-round id exchange, the cheapest execute the spec
/// vocabulary has, so that prepare is as large a share of a cell as it gets.
///
/// `rewind` is left out: its per-arc majority breaks ties by `HashMap`
/// iteration order, so its trajectory lines differ from run to run on these
/// graphs and the fingerprint gate (rightly) refuses them.
fn cold_pairs(seed: u64, quick: bool) -> Vec<(String, CampaignSpec)> {
    let graphs = cold_graphs(if quick { 1 } else { 32 });
    let byz = CampaignSpec {
        seed,
        repetitions: 1,
        grid: GridSpec {
            graphs: graphs.clone(),
            adversaries: vec![AdversaryDef::RandomMobile { f: 1 }],
            compilers: vec![
                tree_packing(PackingVersion::V1Greedy),
                tree_packing(PackingVersion::V2Augmented),
                CompilerDef::CycleCover { f: 1 },
                CompilerDef::Clique { f: 1, seed: 5 },
            ],
            payload: PayloadDef::ExchangeIds,
        },
    };
    let secure = CampaignSpec {
        seed: sub_seed(seed, 3),
        repetitions: 1,
        grid: GridSpec {
            graphs,
            adversaries: vec![AdversaryDef::Eavesdropper { f: 2 }],
            compilers: vec![
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
                CompilerDef::CongestionSensitive {
                    f: 2,
                    words: 2,
                    seed: 5,
                },
            ],
            payload: PayloadDef::ExchangeIds,
        },
    };
    vec![
        ("cold-pairs-byz".to_string(), byz),
        ("cold-pairs-secure".to_string(), secure),
    ]
}

/// The spec files of a CLI workload, `(file stem, spec)` in run order.
pub fn cli_specs(name: &str, seed: u64, quick: bool) -> Vec<(String, CampaignSpec)> {
    match name {
        "byz-zoo" => vec![("byz-zoo".to_string(), byz_zoo(seed, quick))],
        "secure-gossip" => vec![("secure-gossip".to_string(), secure_gossip(seed, quick))],
        "cold-pairs" => cold_pairs(seed, quick),
        other => panic!("`{other}` is not a CLI workload"),
    }
}

/// Jobs per `served-small` trial.
pub fn served_jobs_per_trial(quick: bool) -> usize {
    if quick {
        3
    } else {
        20
    }
}

/// Job `index` of `served-small`: the grid of `specs/e16-small.json` at 20
/// repetitions (540 cells of ~0.1 ms), told apart by its campaign seed.
pub fn served_job_spec(seed: u64, index: usize, quick: bool) -> CampaignSpec {
    use mobile_congest::sim::adversary::CorruptionMode;
    CampaignSpec {
        seed: sub_seed(seed, 1 << 32 | index as u64),
        repetitions: if quick { 2 } else { 20 },
        grid: GridSpec {
            graphs: vec![
                GraphDef::complete(8),
                GraphDef::circulant(10, 2),
                GraphDef::torus(3, 4),
            ],
            adversaries: vec![
                AdversaryDef::RandomMobile { f: 1 },
                AdversaryDef::GreedyHeaviest {
                    f: 1,
                    mode: CorruptionMode::FlipLowBit,
                },
                AdversaryDef::Eavesdropper { f: 2 },
            ],
            compilers: vec![
                CompilerDef::Uncompiled,
                CompilerDef::Clique { f: 1, seed: 5 },
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
            ],
            payload: flood(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_specs_and_another_seed_does_not() {
        for w in WORKLOADS.iter().filter(|w| w.kind == Kind::Cli) {
            let a = cli_specs(w.name, 7, false);
            let b = cli_specs(w.name, 7, false);
            let c = cli_specs(w.name, 8, false);
            for ((_, a), ((_, b), (_, c))) in a.iter().zip(b.iter().zip(c.iter())) {
                assert_eq!(a.to_json(), b.to_json(), "{}", w.name);
                assert_ne!(a.fingerprint(), c.fingerprint(), "{}", w.name);
            }
        }
        assert_eq!(
            served_job_spec(7, 3, false).to_json(),
            served_job_spec(7, 3, false).to_json()
        );
        assert_ne!(
            served_job_spec(7, 3, false).fingerprint(),
            served_job_spec(8, 3, false).fingerprint()
        );
        assert_ne!(
            served_job_spec(7, 3, false).fingerprint(),
            served_job_spec(7, 4, false).fingerprint()
        );
    }

    #[test]
    fn every_generated_spec_round_trips_and_resolves() {
        use mobile_congest::harness::Campaign;
        for w in WORKLOADS.iter().filter(|w| w.kind == Kind::Cli) {
            for (_, spec) in cli_specs(w.name, DEFAULT_SEED, true) {
                let parsed = CampaignSpec::from_json(&spec.to_json()).expect("parses");
                assert_eq!(parsed, spec);
                Campaign::from_spec(&parsed).expect("resolves");
            }
        }
    }

    #[test]
    fn cold_graphs_are_pairwise_distinct_cache_keys() {
        let graphs = cold_graphs(32);
        let keys: std::collections::BTreeSet<String> = graphs
            .iter()
            .map(mobile_congest::harness::spec::graph_to_json)
            .collect();
        assert_eq!(keys.len(), graphs.len());
        assert!(graphs.len() >= 30);
    }

    #[test]
    fn the_served_grid_is_the_checked_in_small_grid() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../specs/e16-small.json"
        ))
        .expect("specs/e16-small.json is checked in");
        let small = CampaignSpec::from_json(&text).expect("parses");
        assert_eq!(served_job_spec(1, 0, false).grid, small.grid);
    }
}
