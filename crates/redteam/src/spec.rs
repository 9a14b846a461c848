//! The plain-data form of a red-team campaign ([`RedTeamSpec`]) and the
//! export of a minimized failure as a standard one-cell campaign spec
//! ([`counterexample_spec`]).

use crate::schedule::SynthesizedAdversary;
use crate::search::SearchStrategy;
use congest_sim::adversary::CorruptionMode;
use mobile_congest_core::adapters::CompilerDef;
use mobile_congest_harness::json::{self, Reader};
use mobile_congest_harness::spec::{
    compiler_from_json, compiler_to_json, graph_from_json, graph_to_json, mode_from_json,
    mode_to_json, payload_from_json, payload_to_json, CampaignSpec, GridSpec, PayloadDef,
    SpecError,
};
use netgraph::GraphDef;

/// The budget envelope candidates must stay inside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Maximum corrupted edges per round (the mobile `f`).
    pub f: usize,
    /// Schedule cycle length candidates are synthesized with.
    pub rounds: usize,
}

/// The search configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpec {
    /// Base seed; chain `c` derives `cell_seed(seed, c)`.
    pub seed: u64,
    /// Independent search chains per target.
    pub chains: usize,
    /// Mutation steps per chain.
    pub steps: usize,
    /// Acceptance rule.
    pub strategy: SearchStrategy,
}

/// One compiler-under-attack: the fixed cell coordinates the search varies
/// the adversary against.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSpec {
    /// The graph the target runs on.
    pub graph: GraphDef,
    /// The compiler under attack.
    pub compiler: CompilerDef,
    /// The payload every evaluation runs.
    pub payload: PayloadDef,
    /// The campaign base seed evaluations replay under (`cell_seed(seed, 0)`
    /// is the evaluation seed, matching cell 0 of the exported one-cell
    /// counterexample campaign).
    pub seed: u64,
    /// How synthesized adversaries rewrite controlled messages.
    pub mode: CorruptionMode,
}

/// A whole red-team campaign as data: what to attack, with what budget, and
/// how hard to search.
#[derive(Debug, Clone, PartialEq)]
pub struct RedTeamSpec {
    /// Search configuration.
    pub search: SearchSpec,
    /// Candidate budget envelope.
    pub budget: BudgetSpec,
    /// The compilers under attack.
    pub targets: Vec<TargetSpec>,
}

impl RedTeamSpec {
    /// Encode as multi-line JSON — stable, diffable, and the canonical input
    /// to [`RedTeamSpec::fingerprint`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"kind\": \"redteam-spec\",\n");
        out.push_str(&format!(
            "  \"search\": {{\"seed\": {}, \"chains\": {}, \"steps\": {}, \"strategy\": {}}},\n",
            self.search.seed,
            self.search.chains,
            self.search.steps,
            json::json_str(self.search.strategy.label())
        ));
        out.push_str(&format!(
            "  \"budget\": {{\"f\": {}, \"rounds\": {}}},\n",
            self.budget.f, self.budget.rounds
        ));
        out.push_str("  \"targets\": [\n");
        for (i, t) in self.targets.iter().enumerate() {
            let sep = if i + 1 < self.targets.len() { "," } else { "" };
            out.push_str("    {\n");
            out.push_str(&format!("      \"graph\": {},\n", graph_to_json(&t.graph)));
            out.push_str(&format!(
                "      \"compiler\": {},\n",
                compiler_to_json(&t.compiler)
            ));
            out.push_str(&format!(
                "      \"payload\": {},\n",
                payload_to_json(&t.payload)
            ));
            out.push_str(&format!("      \"seed\": {},\n", t.seed));
            out.push_str(&format!("      \"mode\": {}\n", mode_to_json(t.mode)));
            out.push_str(&format!("    }}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a spec from JSON (whitespace and field order free; omitted
    /// `strategy` defaults to `evolve`, omitted target `mode` to
    /// `flip-low-bit`).
    pub fn from_json(input: &str) -> Result<RedTeamSpec, SpecError> {
        let doc = json::parse(input)?;
        let doc = Reader::new(&doc, "");
        doc.kind_if_present("redteam-spec")?;
        let search = Reader::new(doc.value("search")?, "search");
        let strategy = match search.optional("strategy", Reader::str)? {
            None => SearchStrategy::Evolve,
            Some(label) => SearchStrategy::parse(label).ok_or_else(|| SpecError::UnknownLabel {
                registry: "search strategy",
                label: label.into(),
            })?,
        };
        let search = SearchSpec {
            seed: search.u64("seed")?,
            chains: search.usize("chains")?,
            steps: search.usize("steps")?,
            strategy,
        };
        let budget = Reader::new(doc.value("budget")?, "budget");
        let budget = BudgetSpec {
            f: budget.usize("f")?,
            rounds: budget.usize("rounds")?,
        };
        let targets = doc
            .array("targets")?
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let path = format!("targets[{i}]");
                let t = Reader::new(t, &path);
                Ok(TargetSpec {
                    graph: graph_from_json(t.value("graph")?)?,
                    compiler: compiler_from_json(t.value("compiler")?)?,
                    payload: payload_from_json(t.value("payload")?)?,
                    seed: t.u64("seed")?,
                    mode: t
                        .get("mode")
                        .map_or(Ok(CorruptionMode::FlipLowBit), mode_from_json)?,
                })
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        let spec = RedTeamSpec {
            search,
            budget,
            targets,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation: non-empty targets, positive budget and search
    /// knobs, every target graph buildable and payload-compatible.
    pub fn validate(&self) -> Result<(), SpecError> {
        for (name, v) in [
            ("search.chains", self.search.chains),
            ("search.steps", self.search.steps),
            ("budget.f", self.budget.f),
            ("budget.rounds", self.budget.rounds),
        ] {
            if v == 0 {
                return Err(SpecError::Invalid {
                    reason: format!("{name} must be at least 1"),
                });
            }
        }
        if self.targets.is_empty() {
            return Err(SpecError::Invalid {
                reason: "targets is empty".into(),
            });
        }
        for target in &self.targets {
            let graph = target.graph.build()?;
            target
                .payload
                .validate(&target.graph.display_name(), &graph)?;
        }
        Ok(())
    }

    /// Stable 64-bit fingerprint (FNV-1a over the canonical
    /// [`RedTeamSpec::to_json`] form), rendered as 16 hex digits — the same
    /// construction campaign specs use, and the key trajectory files carry
    /// so `--resume` never mixes campaigns.
    pub fn fingerprint(&self) -> String {
        json::fnv1a_hex(self.to_json().bytes())
    }
}

/// Export a minimized failure as a standard **one-cell campaign spec**: base
/// seed `target.seed`, one repetition, the shrunk graph and the synthesized
/// schedule as the only grid entries.  Cell 0 of this campaign runs with
/// `cell_seed(target.seed, 0)` — exactly the seed every search evaluation
/// used — so replaying the spec through the ordinary campaign pipeline
/// reproduces the failure bit-for-bit.
pub fn counterexample_spec(
    target: &TargetSpec,
    graph: &GraphDef,
    adversary: &SynthesizedAdversary,
) -> CampaignSpec {
    CampaignSpec {
        seed: target.seed,
        repetitions: 1,
        grid: GridSpec {
            graphs: vec![graph.clone()],
            adversaries: vec![adversary.def()],
            compilers: vec![target.compiler.clone()],
            payload: target.payload.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RedTeamSpec {
        RedTeamSpec {
            search: SearchSpec {
                seed: 2024,
                chains: 4,
                steps: 32,
                strategy: SearchStrategy::Evolve,
            },
            budget: BudgetSpec { f: 2, rounds: 4 },
            targets: vec![TargetSpec {
                graph: GraphDef::watts_strogatz(24, 6, 0.2, 23062),
                compiler: CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 5,
                    packing: netgraph::PackingVersion::V1Greedy,
                },
                payload: PayloadDef::FloodBroadcast {
                    source: 0,
                    value: 4242,
                },
                seed: 2024,
                mode: CorruptionMode::FlipLowBit,
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let spec = sample();
        let parsed = RedTeamSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn omitted_strategy_and_mode_default() {
        let text = r#"{
            "kind": "redteam-spec",
            "search": {"seed": 1, "chains": 1, "steps": 1},
            "budget": {"f": 1, "rounds": 1},
            "targets": [{
                "graph": {"family": "complete", "n": 5},
                "compiler": {"id": "uncompiled"},
                "payload": {"kind": "leader-election"},
                "seed": 7
            }]
        }"#;
        let spec = RedTeamSpec::from_json(text).unwrap();
        assert_eq!(spec.search.strategy, SearchStrategy::Evolve);
        assert_eq!(spec.targets[0].mode, CorruptionMode::FlipLowBit);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample();
        let mut b = sample();
        b.search.steps += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn zero_knobs_rejected() {
        let mut spec = sample();
        spec.budget.f = 0;
        assert!(spec.validate().is_err());
        let mut spec = sample();
        spec.targets.clear();
        assert!(spec.validate().is_err());
    }
}
