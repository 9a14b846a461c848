//! Deterministic local search over corruption schedules: independent chains
//! of greedy hill-climbing or (1+1)-evolution, stopping at the first
//! candidate that breaks the target.

use crate::fitness::{Fitness, ResolvedTarget};
use crate::schedule::{ScheduleMove, SynthesizedAdversary};
use mobile_congest_harness::campaign::cell_seed;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The chain's acceptance rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Accept strictly better candidates only (pure hill-climbing).
    Greedy,
    /// (1+1)-evolution: accept ties too, so the chain drifts across fitness
    /// plateaus instead of stalling on them.
    Evolve,
}

impl SearchStrategy {
    /// The stable lowercase label serialized specs use.
    pub fn label(&self) -> &'static str {
        match self {
            SearchStrategy::Greedy => "greedy",
            SearchStrategy::Evolve => "evolve",
        }
    }

    /// Parse the label form.
    pub fn parse(label: &str) -> Option<SearchStrategy> {
        match label {
            "greedy" => Some(SearchStrategy::Greedy),
            "evolve" => Some(SearchStrategy::Evolve),
            _ => None,
        }
    }
}

/// What one search chain did.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// Candidate evaluations spent (including the initial candidate).
    pub evals: usize,
    /// The step index at which the first failure was found, if any (0 means
    /// the random initial candidate already failed).
    pub found_at: Option<usize>,
    /// The best candidate seen (the failing one when `found_at` is set).
    pub best: SynthesizedAdversary,
    /// Its fitness.
    pub best_fitness: Fitness,
}

/// Run one search chain against a resolved target.
///
/// Chain `chain` derives its seed as `cell_seed(search_seed, chain)`, and
/// step `s` draws all of its randomness from a fresh
/// `ChaCha8Rng::seed_from_u64(cell_seed(chain_seed, s))` — the chain is a
/// pure function of `(search_seed, chain)`, independent of every other
/// chain, which is what lets the engine fan chains across threads without
/// changing any result.
///
/// The chain stops at the first candidate whose fitness
/// [`is_failure`](Fitness::is_failure) — minimization is the shrinker's job,
/// not the search's.
pub fn run_chain(
    target: &ResolvedTarget,
    f: usize,
    rounds: usize,
    strategy: SearchStrategy,
    search_seed: u64,
    chain: usize,
    steps: usize,
) -> ChainReport {
    let chain_seed = cell_seed(search_seed, chain);
    let graph = &target.graph;
    let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(chain_seed, 0));
    let mut current =
        SynthesizedAdversary::random(&mut rng, graph.edge_count(), rounds, f, target.mode);
    let mut best_fitness = target.evaluate(&current);
    let mut evals = 1;
    if best_fitness.is_failure() {
        return ChainReport {
            evals,
            found_at: Some(0),
            best: current,
            best_fitness,
        };
    }
    let mut found_at = None;
    for step in 1..=steps {
        let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(chain_seed, step));
        let mv = ScheduleMove::sample(&mut rng, &current, graph);
        let candidate = current.apply(&mv, graph, f);
        if candidate == current {
            continue; // structural no-op; don't spend an evaluation on it
        }
        let fitness = target.evaluate(&candidate);
        evals += 1;
        let accept = match strategy {
            SearchStrategy::Greedy => fitness > best_fitness,
            SearchStrategy::Evolve => fitness >= best_fitness,
        };
        if accept {
            current = candidate;
            best_fitness = fitness;
        }
        if best_fitness.is_failure() {
            found_at = Some(step);
            break;
        }
    }
    ChainReport {
        evals,
        found_at,
        best: current,
        best_fitness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_labels_round_trip() {
        for s in [SearchStrategy::Greedy, SearchStrategy::Evolve] {
            assert_eq!(SearchStrategy::parse(s.label()), Some(s));
        }
        assert_eq!(SearchStrategy::parse("annealing"), None);
    }
}
