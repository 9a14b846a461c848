//! The red-team engine: fan independent search chains across worker threads,
//! shrink what they find, and serialize the whole run as a resumable
//! trajectory (JSONL) plus replayable counterexample specs.

use crate::fitness::{Fitness, ResolvedTarget};
use crate::schedule::SynthesizedAdversary;
use crate::search::run_chain;
use crate::shrink::shrink;
use crate::spec::{counterexample_spec, RedTeamSpec};
use mobile_congest_harness::engine;
use mobile_congest_harness::json;
use mobile_congest_harness::spec::SpecError;
use netgraph::GraphDef;

/// A minimized, replayable failure.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The shrunk graph the failure reproduces on.
    pub graph: GraphDef,
    /// The minimal failing schedule.
    pub adversary: SynthesizedAdversary,
    /// Fitness of the minimal candidate (still a failure by construction).
    pub fitness: Fitness,
    /// Oracle evaluations the shrinker spent.
    pub shrink_evals: usize,
}

/// What one unit (one target × one search chain) produced.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Global unit index (`target * chains + chain`).
    pub unit: usize,
    /// Target index within the spec.
    pub target: usize,
    /// Chain index within the target.
    pub chain: usize,
    /// Candidate evaluations the search spent.
    pub search_evals: usize,
    /// Step at which the chain first failed the target, if it did.
    pub found_at: Option<usize>,
    /// Best fitness the chain reached (the failing one when `found_at` is
    /// set).
    pub best_fitness: Fitness,
    /// The shrunk failure, when the chain found one.
    pub counterexample: Option<Counterexample>,
}

/// The runnable form of a [`RedTeamSpec`]: resolved targets plus execution
/// knobs (threads, shard) that are deliberately **not** part of the spec —
/// they never change any result, only how fast it arrives.
pub struct RedTeam {
    spec: RedTeamSpec,
    resolved: Vec<ResolvedTarget>,
    threads: usize,
    shard: Option<(usize, usize)>,
}

impl RedTeam {
    /// Resolve a spec (validates it, builds every target graph).
    pub fn from_spec(spec: &RedTeamSpec) -> Result<RedTeam, SpecError> {
        spec.validate()?;
        let resolved = spec
            .targets
            .iter()
            .map(ResolvedTarget::resolve)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RedTeam {
            spec: spec.clone(),
            resolved,
            threads: 0,
            shard: None,
        })
    }

    /// Worker threads (0 = all cores).  Never changes results.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Restrict the run to units with `unit % of == index` (multi-machine
    /// fan-out; shard outputs merge cleanly because every unit line depends
    /// only on the unit's global index).
    pub fn shard(mut self, index: usize, of: usize) -> Self {
        self.shard = Some((index, of.max(1)));
        self
    }

    /// The spec being run.
    pub fn spec(&self) -> &RedTeamSpec {
        &self.spec
    }

    /// The resolved form of target `index` (panics when out of range, like
    /// indexing).
    pub fn resolved_target(&self, index: usize) -> &ResolvedTarget {
        &self.resolved[index]
    }

    /// Total units of the full campaign (targets × chains), ignoring the
    /// shard filter.
    pub fn unit_count(&self) -> usize {
        self.spec.targets.len() * self.spec.search.chains
    }

    /// The unit indices this instance will run (shard filter applied).
    pub fn unit_indices(&self) -> Vec<usize> {
        (0..self.unit_count())
            .filter(|unit| match self.shard {
                Some((index, of)) => unit % of == index,
                None => true,
            })
            .collect()
    }

    /// Run one unit: search chain, then shrink on failure.  Pure function of
    /// the spec and the unit index.
    pub fn run_unit(&self, unit: usize) -> UnitOutcome {
        let chains = self.spec.search.chains;
        let target_index = unit / chains;
        let chain = unit % chains;
        let target = &self.resolved[target_index];
        let report = run_chain(
            target,
            self.spec.budget.f,
            self.spec.budget.rounds,
            self.spec.search.strategy,
            self.spec.search.seed,
            chain,
            self.spec.search.steps,
        );
        let mut counterexample = None;
        if report.found_at.is_some() {
            let original_class = report.best_fitness.failure_class();
            let mut last_fitness = report.best_fitness;
            let outcome = shrink(&target.graph_def, &report.best, |g, a| {
                let fitness = if *g == target.graph_def {
                    target.evaluate(a)
                } else {
                    match target.with_graph(g) {
                        Ok(variant) => variant.evaluate(a),
                        Err(_) => return false,
                    }
                };
                let keeps = fitness.failure_class() >= original_class;
                if keeps {
                    last_fitness = fitness;
                }
                keeps
            });
            counterexample = Some(Counterexample {
                graph: outcome.graph,
                adversary: outcome.adversary,
                fitness: last_fitness,
                shrink_evals: outcome.evals,
            });
        }
        UnitOutcome {
            unit,
            target: target_index,
            chain,
            search_evals: report.evals,
            found_at: report.found_at,
            best_fitness: report.best_fitness,
            counterexample,
        }
    }

    /// Run the given units on the deterministic engine, results in argument
    /// order.  Each unit is independent and seeded by its global index, so
    /// the outcome is byte-identical at any thread count.
    pub fn run_units(&self, units: &[usize]) -> Vec<UnitOutcome> {
        engine::run_indexed(
            if self.threads == 0 {
                engine::default_threads()
            } else {
                self.threads
            },
            units.len(),
            |i| self.run_unit(units[i]),
        )
    }

    /// Run every unit of this instance's shard.
    pub fn run(&self) -> Vec<UnitOutcome> {
        self.run_units(&self.unit_indices())
    }
}

// ---------------------------------------------------------------------------
// Trajectory serialization: header + one line per unit, resumable/shardable.
// ---------------------------------------------------------------------------

/// The trajectory header line: `kind:"redteam"` plus the spec fingerprint
/// that keys `--resume` (a trajectory written for a different spec is
/// refused, never silently mixed).  Files are read back and assembled with
/// the shared `harness::report::{read_lines, assemble}`.
pub fn header_line(spec: &RedTeamSpec) -> String {
    json::object(|w| {
        w.str("kind", "redteam")
            .str("fingerprint", &spec.fingerprint())
            .u64("targets", spec.targets.len() as u64)
            .u64("chains", spec.search.chains as u64)
            .u64("units", (spec.targets.len() * spec.search.chains) as u64);
    })
}

/// One unit's trajectory line.  Depends only on the unit's outcome (itself a
/// pure function of spec + unit index), which is what makes shard and resume
/// accumulation byte-identical to a one-shot run.
pub fn unit_line(spec: &RedTeamSpec, outcome: &UnitOutcome) -> String {
    json::object(|w| {
        w.str("kind", "unit")
            .u64("index", outcome.unit as u64)
            .u64("target", outcome.target as u64)
            .u64("chain", outcome.chain as u64)
            .u64("evals", outcome.search_evals as u64);
        match outcome.found_at {
            Some(step) => w.u64("found_at", step as u64),
            None => w.raw("found_at", "null"),
        };
        w.raw("fitness", &outcome.best_fitness.json());
        let Some(ce) = &outcome.counterexample else {
            w.raw("ce", "null");
            return;
        };
        let ce_spec = counterexample_spec(&spec.targets[outcome.target], &ce.graph, &ce.adversary);
        w.obj("ce", |w| {
            w.str("spec_fingerprint", &ce_spec.fingerprint())
                .str("graph", &ce.graph.display_name())
                .u64("rounds", ce.adversary.rounds() as u64)
                .arr("schedule", |rows| {
                    for row in ce.adversary.schedule() {
                        rows.usizes(row);
                    }
                })
                .raw("fitness", &ce.fitness.json())
                .u64("shrink_evals", ce.shrink_evals as u64);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchStrategy;
    use crate::spec::{BudgetSpec, SearchSpec, TargetSpec};
    use congest_sim::adversary::CorruptionMode;
    use mobile_congest_core::adapters::CompilerDef;
    use mobile_congest_harness::report::{assemble, read_lines};
    use mobile_congest_harness::spec::PayloadDef;

    fn tiny_spec() -> RedTeamSpec {
        RedTeamSpec {
            search: SearchSpec {
                seed: 11,
                chains: 3,
                steps: 2,
                strategy: SearchStrategy::Evolve,
            },
            budget: BudgetSpec { f: 1, rounds: 2 },
            targets: vec![TargetSpec {
                graph: GraphDef::complete(6),
                compiler: CompilerDef::Uncompiled,
                payload: PayloadDef::FloodBroadcast {
                    source: 0,
                    value: 99,
                },
                seed: 3,
                mode: CorruptionMode::FlipLowBit,
            }],
        }
    }

    #[test]
    fn shard_indices_partition_units() {
        let spec = tiny_spec();
        let all = RedTeam::from_spec(&spec).unwrap().unit_indices();
        let mut sharded: Vec<usize> = Vec::new();
        for index in 0..2 {
            sharded.extend(
                RedTeam::from_spec(&spec)
                    .unwrap()
                    .shard(index, 2)
                    .unit_indices(),
            );
        }
        sharded.sort_unstable();
        assert_eq!(all, sharded);
    }

    #[test]
    fn trajectory_round_trips_and_merges() {
        let spec = tiny_spec();
        let team = RedTeam::from_spec(&spec).unwrap().threads(1);
        let outcomes = team.run();
        let lines: Vec<(usize, String)> = outcomes
            .iter()
            .map(|o| (o.unit, unit_line(&spec, o)))
            .collect();
        let full = assemble(&header_line(&spec), &lines);
        let parsed = read_lines(&full, "redteam", "unit", &spec.fingerprint()).unwrap();
        assert_eq!(parsed, lines);
        // Reassembling from an unordered, duplicated line set is identical.
        let mut shuffled = lines.clone();
        shuffled.reverse();
        shuffled.push(lines[0].clone());
        assert_eq!(assemble(&header_line(&spec), &shuffled), full);
        // A foreign fingerprint is refused, and so is a campaign trajectory.
        assert!(read_lines(&full, "redteam", "unit", "0000000000000000").is_err());
        assert!(read_lines(&full, "campaign", "cell", &spec.fingerprint()).is_err());
    }

    #[test]
    fn uncompiled_target_fails_immediately_and_shrinks_small() {
        // The uncompiled baseline has no defence: the very first random
        // candidate that actually corrupts something breaks it, and the
        // shrinker should reduce that to very few corrupted edges.
        let spec = tiny_spec();
        let team = RedTeam::from_spec(&spec).unwrap().threads(1);
        let outcomes = team.run();
        let found = outcomes.iter().find(|o| o.counterexample.is_some());
        let Some(outcome) = found else {
            panic!("no chain broke the uncompiled baseline");
        };
        let ce = outcome.counterexample.as_ref().unwrap();
        assert!(ce.fitness.is_failure());
        assert!(ce.adversary.total_edges() <= 2);
    }
}
