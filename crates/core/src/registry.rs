//! The compiler registry: one entry point resolving a serializable
//! [`CompilerDef`] into a live [`Compiler`] instance.
//!
//! Before this module, the def → instance glue was spread over
//! `CompilerDef::build` and per-call-site adapter constructors.
//! [`instantiate`] is now the single resolution path — `build` delegates
//! here — and the [`Compiler`] impl on `CompilerDef`
//! itself lets builder code pass a def straight to
//! `ScenarioBuilder::compiled_with(def)` without ever naming an adapter type.

use async_exec::AsyncExecutor;

use crate::adapters::{
    CliqueAdapter, CompilerDef, CongestionSensitiveAdapter, CycleCoverAdapter, ExpanderAdapter,
    RewindAdapter, StaticToMobileAdapter, TreePackingAdapter,
};
use congest_sim::network::Network;
use congest_sim::scenario::{
    BoxedAlgorithm, CompileArtifacts, Compiler, CompilerKind, CompilerNotes, FaultFree,
    ScenarioError, Uncompiled,
};
use congest_sim::traffic::Output;
use netgraph::Graph;

/// Resolve `def` into one boxed compiler instance.
///
/// This is the only place in the workspace that maps def variants onto
/// adapter constructors; everything else (`CompilerDef::build`, the spec
/// layer, the `Compiler` impl on `CompilerDef`) routes through it.
pub fn instantiate(def: &CompilerDef) -> Box<dyn Compiler> {
    match *def {
        CompilerDef::Uncompiled => Box::new(Uncompiled),
        CompilerDef::Async { ref schedule } => Box::new(AsyncExecutor::new(schedule.clone())),
        CompilerDef::FaultFree => Box::new(FaultFree),
        CompilerDef::Clique { f, seed } => Box::new(CliqueAdapter::new(f, seed)),
        CompilerDef::TreePacking {
            f,
            trees,
            seed,
            packing,
        } => {
            let adapter = TreePackingAdapter::new(f, seed).with_packing(packing);
            Box::new(match trees {
                Some(k) => adapter.with_trees(k),
                None => adapter,
            })
        }
        CompilerDef::CycleCover { f } => Box::new(CycleCoverAdapter::new(f)),
        CompilerDef::Expander {
            f,
            k,
            bfs_rounds,
            seed,
        } => Box::new(ExpanderAdapter::new(f, k, bfs_rounds, seed)),
        CompilerDef::Rewind { f, seed } => Box::new(RewindAdapter::new(f, seed)),
        CompilerDef::StaticToMobile { t, words, seed } => {
            Box::new(StaticToMobileAdapter::new(t, words, seed))
        }
        CompilerDef::CongestionSensitive { f, words, seed } => {
            Box::new(CongestionSensitiveAdapter::new(f, words, seed))
        }
    }
}

/// A [`CompilerDef`] *is* a compiler: every trait method delegates to the
/// instance [`instantiate`] resolves.  Adapters are stateless parameter
/// holders, so resolving per call changes nothing observable — it just lets
/// `ScenarioBuilder::compiled_with(def)` and grid code stay def-first.
impl Compiler for CompilerDef {
    fn name(&self) -> String {
        instantiate(self).name()
    }
    fn kind(&self) -> CompilerKind {
        // The inherent `CompilerDef::kind` — already the adapter's kind.
        CompilerDef::kind(self)
    }
    fn prepare(
        &self,
        graph: &Graph,
        tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        instantiate(self).prepare(graph, tracer)
    }
    fn execute(
        &self,
        artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        instantiate(self).execute(artifacts, make, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::FloodBroadcast;
    use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
    use congest_sim::scenario::Scenario;
    use netgraph::generators;

    #[test]
    fn defs_pass_directly_to_compiled_with() {
        // The whole point of the registry satellite: no adapter type named.
        let g = generators::complete(8);
        let payload_graph = g.clone();
        let report = Scenario::on(g)
            .payload(move || FloodBroadcast::new(payload_graph.clone(), 0, 7))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(1, 5),
                CorruptionBudget::Mobile { f: 1 },
            )
            .seed(5)
            .compiled_with(CompilerDef::Clique { f: 1, seed: 5 })
            .run()
            .unwrap();
        assert_eq!(report.compiler, "clique(f=1)");
    }

    #[test]
    fn def_trait_surface_matches_the_instantiated_adapter() {
        let defs = [
            CompilerDef::Uncompiled,
            CompilerDef::FaultFree,
            CompilerDef::Clique { f: 1, seed: 9 },
            CompilerDef::TreePacking {
                f: 1,
                trees: None,
                seed: 9,
                packing: netgraph::PackingVersion::default(),
            },
            CompilerDef::CycleCover { f: 1 },
            CompilerDef::Rewind { f: 1, seed: 9 },
            CompilerDef::StaticToMobile {
                t: 4,
                words: 2,
                seed: 9,
            },
        ];
        for def in defs {
            let built = instantiate(&def);
            assert_eq!(Compiler::name(&def), built.name());
            assert_eq!(Compiler::kind(&def), built.kind());
        }
    }

    #[test]
    fn def_prepare_matches_the_adapter_prepare() {
        let g = generators::circulant(12, 3);
        let def = CompilerDef::TreePacking {
            f: 1,
            trees: Some(9),
            seed: 3,
            packing: netgraph::PackingVersion::V2Augmented,
        };
        let mut tracer = obs::TraceSpec::off().build_tracer();
        let via_def = Compiler::prepare(&def, &g, &mut tracer).unwrap();
        let via_adapter = instantiate(&def).prepare(&g, &mut tracer).unwrap();
        assert_eq!(
            format!("{via_def:?}"),
            format!("{via_adapter:?}"),
            "def-routed and adapter-routed artifacts must agree"
        );
    }
}
