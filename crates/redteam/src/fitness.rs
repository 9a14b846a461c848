//! The search's objective: a lexicographic damage lattice over run reports,
//! and the resolved execution target candidates are scored against.

use crate::schedule::SynthesizedAdversary;
use crate::spec::TargetSpec;
use congest_sim::adversary::CorruptionMode;
use congest_sim::scenario::matrix::run_cell;
use congest_sim::scenario::{RunReport, ScenarioError, Verdict};
use mobile_congest_core::adapters::CompilerDef;
use mobile_congest_harness::campaign::cell_seed;
use mobile_congest_harness::json;
use mobile_congest_harness::spec::{PayloadDef, SpecError};
use netgraph::{Graph, GraphDef};
use std::sync::Arc;

/// How much damage a candidate attack did, as a lexicographic lattice: the
/// derived `Ord` compares fields top to bottom, so a failed decode dominates
/// any number of residual mismatches, which dominate rewinds, and so on.
/// The trailing tiers give hill-climbing a gradient even while the compiler
/// still corrects everything — on the v1 greedy packing, `attack_pressure`
/// (failed trees + pre-correction mismatches) distinguishes edges the
/// packing reuses heavily from edges it covers well.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fitness {
    /// The compiled run's outputs disagree with the fault-free reference —
    /// the compiler's guarantee is broken.
    pub failed_decode: bool,
    /// Mismatched node outputs left *after* correction
    /// (`mismatches_after`).
    pub residual_mismatches: u64,
    /// Rewinds the compiler was forced into (rate-resilient compilers).
    pub rewinds: u64,
    /// Failed trees plus pre-correction mismatches — how hard the correction
    /// machinery had to work even when it succeeded.
    pub attack_pressure: u64,
    /// Peak per-edge congestion of the compiled run (tie-breaker).
    pub max_congestion: u64,
}

impl Fitness {
    /// Score one run report.
    pub fn from_report(report: &RunReport) -> Fitness {
        let facet = |name: &str| -> u64 {
            report
                .notes
                .metrics()
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v as u64)
                .unwrap_or(0)
        };
        Fitness {
            failed_decode: report.agrees_with_fault_free() == Some(false),
            residual_mismatches: facet("mismatches_after"),
            rewinds: report.notes.rewinds().unwrap_or(0) as u64,
            attack_pressure: facet("failed_trees") + facet("mismatches_before"),
            max_congestion: report.metrics.max_edge_congestion() as u64,
        }
    }

    /// Whether the attack broke the compiler's output guarantee at all.
    pub fn is_failure(&self) -> bool {
        self.failed_decode || self.residual_mismatches > 0
    }

    /// The failure severity class the shrinker keeps invariant: 2 for a
    /// failed decode, 1 for residual mismatches only, 0 for a corrected run.
    pub fn failure_class(&self) -> u8 {
        if self.failed_decode {
            2
        } else if self.residual_mismatches > 0 {
            1
        } else {
            0
        }
    }

    /// Compact one-line JSON form (stable field order; trajectory lines and
    /// tests embed this).
    pub fn json(&self) -> String {
        json::object(|w| {
            w.opt_bool("failed_decode", Some(self.failed_decode))
                .u64("residual", self.residual_mismatches)
                .u64("rewinds", self.rewinds)
                .u64("pressure", self.attack_pressure)
                .u64("congestion", self.max_congestion);
        })
    }
}

/// A [`TargetSpec`] resolved into runnable form: built graph, compiler and
/// payload defs and the evaluation seed.  Everything inside is
/// `Send + Sync`, so the engine shares one resolved target across worker
/// threads.
pub struct ResolvedTarget {
    /// The graph def the target runs on (the shrinker descends this).
    pub graph_def: GraphDef,
    /// The graph built from `graph_def`.
    pub graph: Graph,
    /// The compiler under attack, as data (each evaluation builds it).
    pub compiler: CompilerDef,
    /// The payload every evaluation runs.
    pub payload: PayloadDef,
    /// How the synthesized adversary rewrites controlled messages.
    pub mode: CorruptionMode,
    /// The per-evaluation seed: `cell_seed(target.seed, 0)`, i.e. exactly
    /// the seed cell 0 of a single-cell campaign with base seed
    /// `target.seed` gets — which is why an exported counterexample spec
    /// replays the search's evaluation bit-for-bit.
    pub eval_seed: u64,
    /// The `(graph, compiler)` verdict, computed once when the target is
    /// resolved and shared by every candidate evaluation — a rejection
    /// included, so a graph the compiler refuses (the shrinker proposes
    /// graphs nobody judged) scores no damage without running anything.
    verdict: Verdict,
}

impl ResolvedTarget {
    /// Resolve a target spec (builds the graph, validates the payload
    /// against it).
    pub fn resolve(target: &TargetSpec) -> Result<ResolvedTarget, SpecError> {
        Self::on_graph(
            &target.graph,
            &target.compiler,
            &target.payload,
            target.mode,
            cell_seed(target.seed, 0),
        )
    }

    /// The same target on a different graph — the shrinker's graph-descent
    /// step.  Fails when the smaller graph no longer fits the payload (the
    /// flood source fell off the node range, or a flooding payload lost its
    /// connected graph), which simply rejects that shrink candidate.
    pub fn with_graph(&self, def: &GraphDef) -> Result<ResolvedTarget, SpecError> {
        Self::on_graph(
            def,
            &self.compiler,
            &self.payload,
            self.mode,
            self.eval_seed,
        )
    }

    fn on_graph(
        graph_def: &GraphDef,
        compiler: &CompilerDef,
        payload: &PayloadDef,
        mode: CorruptionMode,
        eval_seed: u64,
    ) -> Result<ResolvedTarget, SpecError> {
        let graph = graph_def.build()?;
        payload.validate(&graph_def.display_name(), &graph)?;
        let verdict = compiler
            .build()
            .prepare(&graph, &mut obs::Tracer::disabled())
            .map(Arc::new);
        Ok(ResolvedTarget {
            graph_def: graph_def.clone(),
            graph,
            compiler: compiler.clone(),
            payload: payload.clone(),
            mode,
            eval_seed,
            verdict,
        })
    }

    /// Score one candidate: run the cell (pure function of defs + seed) and
    /// fold the report into the [`Fitness`] lattice.  A run that errors at
    /// scenario level scores [`Fitness::default`] — no damage, never a
    /// failure.
    pub fn evaluate(&self, adv: &SynthesizedAdversary) -> Fitness {
        match self.run(adv, obs::TraceSpec::off(), Some(self.verdict.clone())) {
            Ok(report) => Fitness::from_report(&report),
            Err(_) => Fitness::default(),
        }
    }

    /// Re-run one candidate with event tracing on (ring buffer) — used to
    /// export the replay trace of a minimized counterexample.  Prepares
    /// inside the cell so the packing spans land in the replay trace.
    pub fn run_traced(&self, adv: &SynthesizedAdversary) -> Result<RunReport, ScenarioError> {
        self.run(adv, obs::TraceSpec::ring(), None)
    }

    fn run(
        &self,
        adv: &SynthesizedAdversary,
        trace: obs::TraceSpec,
        verdict: Option<Verdict>,
    ) -> Result<RunReport, ScenarioError> {
        let payload = self.payload.clone();
        run_cell(
            &self.graph,
            &adv.def(),
            self.compiler.build(),
            move |g: &Graph| payload.build(g),
            self.eval_seed,
            trace,
            verdict,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitness_lattice_orders_lexicographically() {
        let corrected = Fitness {
            attack_pressure: 900,
            max_congestion: 900,
            ..Fitness::default()
        };
        let residual = Fitness {
            residual_mismatches: 1,
            ..Fitness::default()
        };
        let decode = Fitness {
            failed_decode: true,
            ..Fitness::default()
        };
        assert!(decode > residual && residual > corrected);
        assert!(!corrected.is_failure() && residual.is_failure() && decode.is_failure());
        assert_eq!(decode.failure_class(), 2);
        assert_eq!(residual.failure_class(), 1);
        assert_eq!(corrected.failure_class(), 0);
    }
}
