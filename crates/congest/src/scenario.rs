//! The unified `Scenario` execution API: one typed pipeline for
//! graph × payload × adversary × compiler.
//!
//! Every experiment in this reproduction answers the same question — *run
//! payload `P` on graph `G` under adversary `A` through compiler `C`; did the
//! output survive, and at what cost?*  Before this module, each call site
//! hand-wired a [`Network`], a per-compiler entry point and an ad-hoc results
//! table.  A [`Scenario`] expresses the whole pipeline fluently:
//!
//! ```
//! use congest_sim::scenario::{Scenario, Uncompiled};
//! use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
//! use netgraph::generators;
//!
//! let report = Scenario::on(generators::complete(8))
//!     .payload(|| congest_sim::scenario::doctest_payload(generators::complete(8)))
//!     .adversary(
//!         AdversaryRole::Byzantine,
//!         RandomMobile::new(1, 7),
//!         CorruptionBudget::Mobile { f: 1 },
//!     )
//!     .seed(7)
//!     .compiled_with(Uncompiled)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.payload_rounds, 1);
//! ```
//!
//! The pieces:
//!
//! * [`Compiler`] — the object-safe interface every compiler implements
//!   (`mobile-congest-core`'s `CompilerDef` names and runs the paper's
//!   seven compilers; [`Uncompiled`] and [`FaultFree`] live here);
//! * [`ScenarioBuilder`] — fluent configuration, judged when
//!   [`ScenarioBuilder::build`] (or `run`) is called: an eavesdropper paired
//!   with a resilience compiler, or a graph the compiler's
//!   [`Compiler::prepare`] rejects, is a typed [`ScenarioError`], not a
//!   silent misrun;
//! * [`RunReport`] — outputs plus round/bandwidth/corruption metrics, the
//!   compiler's typed [`CompilerNotes`], the eavesdropper's [`ViewLog`] and
//!   the fault-free-agreement verdict;
//! * [`CompilerNotes`] — the typed diagnostics channel (rewind counts,
//!   correction verdicts, key rounds, packing quality) threaded from every
//!   compiler through [`Compiler::execute`] onto the report;
//! * [`matrix`] — the adversary half of the grid vocabulary
//!   ([`matrix::AdversaryDef`]), the zoo defs and [`matrix::run_cell`], the
//!   one per-cell entry point the `harness::Campaign` engine drives.

use crate::adversary::{AdversaryRole, AdversaryStrategy, CorruptionBudget, NoAdversary};
use crate::algorithm::{run_fault_free, run_on_network, CongestAlgorithm};
use crate::metrics::Metrics;
use crate::network::{Network, ViewLog};
use crate::traffic::Output;
use netgraph::Graph;

/// A payload algorithm behind a uniform pointer type.
///
/// The `Send` bound lets executors move payload instances onto worker
/// threads (the async runtime hosts one instance per node); every payload in
/// the tree is plain data, so the bound costs nothing.
pub type BoxedAlgorithm = Box<dyn CongestAlgorithm + Send>;

/// A factory producing fresh payload instances (compilers that rewind or
/// compare against a fault-free reference need more than one).
pub type PayloadFactory = Box<dyn Fn() -> BoxedAlgorithm>;

/// Everything that can go wrong when configuring or executing a scenario.
///
/// This enum unifies what used to be scattered panics (`CliqueCompiler::new`
/// on a non-clique), `Option` returns (`CycleCoverCompiler::new`) and silent
/// misconfigurations (running a secrecy compiler under a byzantine adversary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The graph has no nodes.
    EmptyGraph,
    /// No payload factory was supplied.
    MissingPayload,
    /// The compiler does not defend against this adversary role (e.g. a
    /// resilience compiler under an eavesdropper, or a secrecy compiler under
    /// a byzantine adversary).
    RoleMismatch {
        /// The compiler's display name.
        compiler: String,
        /// What the compiler defends against.
        kind: CompilerKind,
        /// The configured role.
        role: AdversaryRole,
    },
    /// The compiler cannot run on this graph (wrong family, too sparse, …).
    UnsupportedGraph {
        /// The compiler's display name.
        compiler: String,
        /// Human-readable explanation.
        reason: String,
    },
    /// The graph's edge connectivity is below what the compiler requires.
    InsufficientConnectivity {
        /// The compiler's display name.
        compiler: String,
        /// Required edge connectivity.
        needed: usize,
        /// Actual edge connectivity.
        found: usize,
    },
    /// [`Compiler::execute`] was handed [`CompileArtifacts`] whose payload is
    /// not the one this compiler's [`Compiler::prepare`] builds (they were
    /// prepared by a different compiler).
    ArtifactMismatch {
        /// The compiler's display name.
        compiler: String,
    },
    /// A parameter combination the compiler rejects.
    InvalidParameter {
        /// The compiler's display name.
        compiler: String,
        /// Human-readable explanation.
        reason: String,
    },
    /// The compiled execution ran but did not complete its contract (e.g. the
    /// rewind compiler ran out of global rounds before committing every
    /// payload round).
    IncompleteRun {
        /// The compiler's display name.
        compiler: String,
        /// Human-readable explanation.
        detail: String,
    },
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScenarioError::EmptyGraph => write!(f, "the scenario graph has no nodes"),
            ScenarioError::MissingPayload => write!(f, "no payload algorithm was configured"),
            ScenarioError::RoleMismatch {
                compiler,
                kind,
                role,
            } => write!(
                f,
                "compiler `{compiler}` ({kind:?}) does not defend against a {role:?} adversary"
            ),
            ScenarioError::UnsupportedGraph { compiler, reason } => {
                write!(
                    f,
                    "compiler `{compiler}` cannot run on this graph: {reason}"
                )
            }
            ScenarioError::InsufficientConnectivity {
                compiler,
                needed,
                found,
            } => write!(
                f,
                "compiler `{compiler}` needs edge connectivity >= {needed}, graph has {found}"
            ),
            ScenarioError::ArtifactMismatch { compiler } => write!(
                f,
                "compiler `{compiler}` was handed artifacts prepared by a different compiler"
            ),
            ScenarioError::InvalidParameter { compiler, reason } => {
                write!(f, "compiler `{compiler}` rejected its parameters: {reason}")
            }
            ScenarioError::IncompleteRun { compiler, detail } => {
                write!(f, "compiler `{compiler}` did not complete: {detail}")
            }
        }
    }
}

impl ScenarioError {
    /// Whether this error is a *configuration-time* rejection (role mismatch,
    /// unsupported graph, connectivity shortfall, bad parameter) as opposed
    /// to a runtime failure.  The harness campaign engine records validation
    /// errors as skipped cells, not failures.
    pub fn is_validation_error(&self) -> bool {
        matches!(
            self,
            ScenarioError::RoleMismatch { .. }
                | ScenarioError::UnsupportedGraph { .. }
                | ScenarioError::InsufficientConnectivity { .. }
                | ScenarioError::InvalidParameter { .. }
        )
    }
}

impl std::error::Error for ScenarioError {}

/// What a compiler defends against; drives role validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompilerKind {
    /// No defence at all — the baseline the paper's compilers are measured
    /// against ([`Uncompiled`]).
    Baseline,
    /// Ignores the network entirely ([`FaultFree`] reference runs).
    Reference,
    /// Correctness against byzantine edge corruption (Theorems 1.4–1.7, 3.5).
    Resilient,
    /// Correctness against a bounded round-error *rate* (Theorem 4.1).
    RateResilient,
    /// Secrecy against eavesdropping (Theorems 1.2, 1.3, A.4).
    Secure,
}

impl CompilerKind {
    /// Whether a compiler of this kind is meaningful under the given role.
    pub fn supports(self, role: AdversaryRole) -> bool {
        match self {
            CompilerKind::Baseline | CompilerKind::Reference => true,
            CompilerKind::Resilient | CompilerKind::RateResilient => {
                role == AdversaryRole::Byzantine
            }
            CompilerKind::Secure => role == AdversaryRole::Eavesdropper,
        }
    }
}

/// Typed per-compiler diagnostics, returned from [`Compiler::execute`] and
/// carried on [`RunReport::notes`].
///
/// Every compiler of the paper produces a structured report of *how* the run
/// went — how many rewinds, whether every round was fully corrected, how many
/// rounds were spent exchanging keys, how good the packing built under attack
/// was.  Before this enum the pipeline discarded those reports; now the whole
/// channel is typed end to end, so scenario callers (and the `harness`
/// campaign engine) can assert on and aggregate over them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompilerNotes {
    /// The compiler has nothing to report (baseline / reference runs).
    None,
    /// Tree-packing resilient compilers (Theorems 1.6 / 3.5): the correction
    /// trace, summed over the simulated payload rounds, plus the quality of
    /// the packing the run was compiled over (the structural quantities that
    /// predict whether the correction majority can hold).
    Resilient {
        /// Whether every simulated round ended with zero residual mismatches.
        fully_corrected: bool,
        /// Mismatched arcs before correction, summed over rounds.
        mismatches_before: usize,
        /// Mismatched arcs after correction, summed over rounds.
        mismatches_after: usize,
        /// Tree instances that failed during sketch aggregation, summed.
        failed_trees: usize,
        /// Trees in the packing.
        packing_trees: usize,
        /// Spanning, root-anchored trees the correction majority can use.
        packing_good_trees: usize,
        /// Maximum number of trees sharing one host edge — a heaviest-edge
        /// adversary fails all of them at once, so this must stay at or
        /// below the correction code's error capacity.
        packing_max_load: usize,
        /// The smallest max edge load any packing of this size can achieve
        /// on this graph (`⌈k(n−1)/m⌉`).
        packing_load_floor: usize,
        /// Tree-edge slots crossing one minimum edge cut of the graph.
        packing_min_cut_usage: usize,
    },
    /// The expander compiler (Theorem 1.7): quality of the packing built
    /// while under attack, plus the correction verdict.
    Expander {
        /// Colour classes / candidate trees built.
        trees: usize,
        /// Trees that came out spanning within the depth budget.
        good_trees: usize,
        /// Network rounds spent building the packing.
        packing_rounds: usize,
        /// Whether every simulated round ended fully corrected.
        fully_corrected: bool,
        /// Residual mismatched arcs, summed over rounds.
        mismatches_after: usize,
    },
    /// The FT-cycle-cover compiler (Theorems 1.4 / 5.5): cover geometry.
    CycleCover {
        /// Edge-disjoint paths per edge (`2f + 1`).
        paths_per_edge: usize,
        /// Dilation of the cover.
        dilation: usize,
        /// Congestion of the cover.
        congestion: usize,
        /// Colour classes processed per simulated round.
        colors: usize,
    },
    /// The rewind compiler (Theorem 4.1): progress bookkeeping.
    Rewind {
        /// Number of rewinds performed.
        rewinds: usize,
        /// Committed simulated rounds at the end.
        committed_rounds: usize,
        /// Global rounds executed.
        global_rounds: usize,
        /// Whether the payload completed all of its rounds.
        completed: bool,
    },
    /// The static→mobile secrecy compiler (Theorem 1.2): phase split.
    Secure {
        /// Rounds spent establishing one-time pads.
        key_rounds: usize,
        /// Rounds spent simulating the payload.
        simulation_rounds: usize,
    },
    /// The asynchronous virtual-time executor (`async_exec`): delivery
    /// bookkeeping of one event-loop run.
    Async {
        /// Virtual ticks the event loop consumed.
        ticks: usize,
        /// Network exchanges executed (equals the payload round count on a
        /// synchronous schedule).
        exchanges: usize,
        /// Present (non-empty-slot) messages delivered to node inboxes.
        delivered_slots: usize,
        /// Messages whose content the drop schedule discarded in flight.
        dropped_slots: usize,
        /// Messages that arrived at a later tick than they were sent.
        delayed_slots: usize,
        /// Whether every node completed all of its payload rounds within the
        /// scheduling horizon.
        completed: bool,
        /// Nodes still short of their final round when the loop ended.
        unfinished_nodes: usize,
    },
    /// The congestion-sensitive secrecy compiler (Theorem 1.3).
    CongestionSensitive {
        /// Rounds of local secret exchange.
        local_key_rounds: usize,
        /// Rounds of global secret exchange.
        global_key_rounds: usize,
        /// Rounds simulating the payload.
        simulation_rounds: usize,
        /// Congestion bound used for the parameters.
        congestion: usize,
    },
}

impl CompilerNotes {
    /// Whether there are no diagnostics.
    pub fn is_none(&self) -> bool {
        matches!(self, CompilerNotes::None)
    }

    /// Stable lowercase label of the variant (JSONL `type` field).
    pub fn label(&self) -> &'static str {
        match self {
            CompilerNotes::None => "none",
            CompilerNotes::Resilient { .. } => "resilient",
            CompilerNotes::Expander { .. } => "expander",
            CompilerNotes::CycleCover { .. } => "cycle-cover",
            CompilerNotes::Rewind { .. } => "rewind",
            CompilerNotes::Secure { .. } => "secure",
            CompilerNotes::Async { .. } => "async",
            CompilerNotes::CongestionSensitive { .. } => "congestion-sensitive",
        }
    }

    /// Whether every simulated round ended fully corrected (resilient-style
    /// compilers only).
    pub fn fully_corrected(&self) -> Option<bool> {
        match self {
            CompilerNotes::Resilient {
                fully_corrected, ..
            }
            | CompilerNotes::Expander {
                fully_corrected, ..
            } => Some(*fully_corrected),
            _ => None,
        }
    }

    /// `(good_trees, trees, max_edge_load)` of the packing the run was
    /// compiled over (tree-packing resilient compilers only).
    pub fn packing_quality(&self) -> Option<(usize, usize, usize)> {
        match self {
            CompilerNotes::Resilient {
                packing_good_trees,
                packing_trees,
                packing_max_load,
                ..
            } => Some((*packing_good_trees, *packing_trees, *packing_max_load)),
            _ => None,
        }
    }

    /// Number of rewinds (rewind compiler only).
    pub fn rewinds(&self) -> Option<usize> {
        match self {
            CompilerNotes::Rewind { rewinds, .. } => Some(*rewinds),
            _ => None,
        }
    }

    /// Total key-exchange rounds (secrecy compilers only).
    pub fn key_rounds(&self) -> Option<usize> {
        match self {
            CompilerNotes::Secure { key_rounds, .. } => Some(*key_rounds),
            CompilerNotes::CongestionSensitive {
                local_key_rounds,
                global_key_rounds,
                ..
            } => Some(local_key_rounds + global_key_rounds),
            _ => None,
        }
    }

    /// One compact `key:value` fragment for results tables (e.g.
    /// `rewinds:3`, `corrected:yes`, `key-rounds:12`).
    pub fn summary(&self) -> String {
        match self {
            CompilerNotes::None => "-".into(),
            CompilerNotes::Resilient {
                fully_corrected,
                mismatches_after,
                packing_good_trees,
                packing_trees,
                packing_max_load,
                ..
            } => {
                let packing =
                    format!("good:{packing_good_trees}/{packing_trees},load:{packing_max_load}");
                if *fully_corrected {
                    format!("corrected:yes,{packing}")
                } else {
                    format!("corrected:NO({mismatches_after} left),{packing}")
                }
            }
            CompilerNotes::Expander {
                trees, good_trees, ..
            } => format!("good-trees:{good_trees}/{trees}"),
            CompilerNotes::CycleCover {
                dilation,
                congestion,
                ..
            } => format!("dil:{dilation},cong:{congestion}"),
            CompilerNotes::Rewind { rewinds, .. } => format!("rewinds:{rewinds}"),
            CompilerNotes::Secure { key_rounds, .. } => format!("key-rounds:{key_rounds}"),
            CompilerNotes::Async {
                ticks,
                dropped_slots,
                completed,
                unfinished_nodes,
                ..
            } => {
                let mut s = format!("ticks:{ticks}");
                if *dropped_slots > 0 {
                    s.push_str(&format!(",dropped:{dropped_slots}"));
                }
                if !completed {
                    s.push_str(&format!(",INCOMPLETE({unfinished_nodes} nodes)"));
                }
                s
            }
            CompilerNotes::CongestionSensitive {
                local_key_rounds,
                global_key_rounds,
                ..
            } => format!("key-rounds:{}", local_key_rounds + global_key_rounds),
        }
    }

    /// The numeric facets of the diagnostics, as stable `(name, value)`
    /// pairs (booleans as 0/1).  This is what campaign-level aggregation
    /// (mean/min/max/p50/p99 over repetitions) runs over.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        fn b(v: bool) -> f64 {
            if v {
                1.0
            } else {
                0.0
            }
        }
        match self {
            CompilerNotes::None => Vec::new(),
            CompilerNotes::Resilient {
                fully_corrected,
                mismatches_before,
                mismatches_after,
                failed_trees,
                packing_trees,
                packing_good_trees,
                packing_max_load,
                packing_load_floor,
                packing_min_cut_usage,
            } => vec![
                ("fully_corrected", b(*fully_corrected)),
                ("mismatches_before", *mismatches_before as f64),
                ("mismatches_after", *mismatches_after as f64),
                ("failed_trees", *failed_trees as f64),
                ("packing_trees", *packing_trees as f64),
                ("packing_good_trees", *packing_good_trees as f64),
                ("packing_max_load", *packing_max_load as f64),
                ("packing_load_floor", *packing_load_floor as f64),
                ("packing_min_cut_usage", *packing_min_cut_usage as f64),
            ],
            CompilerNotes::Expander {
                trees,
                good_trees,
                packing_rounds,
                fully_corrected,
                mismatches_after,
            } => vec![
                ("trees", *trees as f64),
                ("good_trees", *good_trees as f64),
                ("packing_rounds", *packing_rounds as f64),
                ("fully_corrected", b(*fully_corrected)),
                ("mismatches_after", *mismatches_after as f64),
            ],
            CompilerNotes::CycleCover {
                paths_per_edge,
                dilation,
                congestion,
                colors,
            } => vec![
                ("paths_per_edge", *paths_per_edge as f64),
                ("dilation", *dilation as f64),
                ("congestion", *congestion as f64),
                ("colors", *colors as f64),
            ],
            CompilerNotes::Rewind {
                rewinds,
                committed_rounds,
                global_rounds,
                completed,
            } => vec![
                ("rewinds", *rewinds as f64),
                ("committed_rounds", *committed_rounds as f64),
                ("global_rounds", *global_rounds as f64),
                ("completed", b(*completed)),
            ],
            CompilerNotes::Secure {
                key_rounds,
                simulation_rounds,
            } => vec![
                ("key_rounds", *key_rounds as f64),
                ("simulation_rounds", *simulation_rounds as f64),
            ],
            CompilerNotes::Async {
                ticks,
                exchanges,
                delivered_slots,
                dropped_slots,
                delayed_slots,
                completed,
                unfinished_nodes,
            } => vec![
                ("ticks", *ticks as f64),
                ("exchanges", *exchanges as f64),
                ("delivered_slots", *delivered_slots as f64),
                ("dropped_slots", *dropped_slots as f64),
                ("delayed_slots", *delayed_slots as f64),
                ("completed", b(*completed)),
                ("unfinished_nodes", *unfinished_nodes as f64),
            ],
            CompilerNotes::CongestionSensitive {
                local_key_rounds,
                global_key_rounds,
                simulation_rounds,
                congestion,
            } => vec![
                ("local_key_rounds", *local_key_rounds as f64),
                ("global_key_rounds", *global_key_rounds as f64),
                ("simulation_rounds", *simulation_rounds as f64),
                ("congestion", *congestion as f64),
            ],
        }
    }
}

impl core::fmt::Display for CompilerNotes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.summary())
    }
}

/// Seed-independent products of a compiler's *prepare* phase.
///
/// Everything in here is a pure function of the graph and the compiler's own
/// parameters — never of the run seed or the adversary — so one value can be
/// shared across every `(seed, adversary)` cell of a campaign grid.  The
/// carried graph is a clone of the prepared one, so it shares that graph's
/// data and structural memos, and its CSR adjacency index is forced;
/// compiler-specific state (a tree packing, a prebuilt correction
/// compiler, a cycle cover) rides along as an opaque `Any` payload that the
/// owning compiler downcasts back in [`Compiler::execute`].
pub struct CompileArtifacts {
    graph: Graph,
    payload: Option<std::sync::Arc<dyn std::any::Any + Send + Sync>>,
}

impl CompileArtifacts {
    /// Artifacts that carry only the (CSR-warmed) graph — the default for
    /// compilers whose expensive state depends on the seed or the adversary
    /// (key schedules, under-attack packings).
    pub fn graph_only(graph: &Graph) -> Self {
        let graph = graph.clone();
        let _ = graph.csr();
        CompileArtifacts {
            graph,
            payload: None,
        }
    }

    /// Artifacts carrying a compiler-specific seed-independent payload in
    /// addition to the warmed graph.
    pub fn with_payload<T: std::any::Any + Send + Sync>(graph: &Graph, payload: T) -> Self {
        let mut artifacts = CompileArtifacts::graph_only(graph);
        artifacts.payload = Some(std::sync::Arc::new(payload));
        artifacts
    }

    /// The prepared graph, CSR index already built.  Every clone of it (the
    /// per-cell networks and payloads) shares its memos, so the CSR index,
    /// the minimum cut and the diameter are computed once per graph, not
    /// once per cell.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Downcast the compiler-specific payload back to its concrete type.
    /// `None` if no payload was stored or the type does not match (e.g. the
    /// artifacts were prepared by a different compiler).
    pub fn payload<T: std::any::Any + Send + Sync>(&self) -> Option<&T> {
        self.payload.as_deref().and_then(|p| p.downcast_ref())
    }
}

impl core::fmt::Debug for CompileArtifacts {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CompileArtifacts")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("has_payload", &self.payload.is_some())
            .finish()
    }
}

/// What one `(graph, compiler)` pair comes to: the shared artifacts of a
/// [`Compiler::prepare`] that accepted the graph, or the typed reason it did
/// not.  A pure function of the pair — never of the seed or the adversary —
/// so a campaign computes it once and hands every cell of the pair a clone
/// (the harness `ArtifactCache` stores exactly this type).
pub type Verdict = Result<std::sync::Arc<CompileArtifacts>, ScenarioError>;

/// The uniform compiler interface of the scenario pipeline.
///
/// A compiler takes an arbitrary round-by-round CONGEST algorithm and
/// simulates it on the (adversarial) network, returning the payload outputs.
/// Implementations are cheap parameter holders.
///
/// The interface is **two-phase**: [`Compiler::prepare`] judges the graph
/// and builds everything that depends only on it and the compiler's
/// parameters (tree packings, covers, prebuilt correction state) into
/// [`CompileArtifacts`], and [`Compiler::execute`] runs the
/// seed/adversary-dependent simulation against those artifacts.  `execute`
/// is the one required run method; compilers that accept every graph and
/// have no seed-independent prefix inherit the graph-only `prepare` default.
///
/// `prepare` is the **only** place a compiler states a precondition on the
/// graph or on its own parameters (connectivity, completeness, degree and
/// size floors, parameter ranges); the adversary role is the one
/// precondition that is not a property of the pair, and [`validate_role`]
/// checks it from [`CompilerKind`] alone.
pub trait Compiler {
    /// Display name for reports and error messages.
    fn name(&self) -> String;

    /// What the compiler defends against.
    fn kind(&self) -> CompilerKind;

    /// Phase one: judge `graph` and build its seed-independent artifacts.
    ///
    /// Every graph or parameter rule comes first — before any span opens or
    /// any structure is built — and fails with a configuration-time
    /// [`ScenarioError`] ([`ScenarioError::is_validation_error`]), so a
    /// rejected pair costs its checks and nothing else, emits no events and
    /// never panics on hostile input.
    ///
    /// The default accepts every graph and returns graph-only artifacts
    /// (warm CSR, no payload) — correct for every compiler whose derived
    /// state is seed- or adversary-dependent.  Overrides must be a pure
    /// function of `(graph, self)`, errors included: campaign drivers key the
    /// cached [`Verdict`] by `(GraphDef, CompilerDef)` only, and campaign
    /// fingerprints must stay byte-identical whether it is cached or
    /// recomputed per cell.  `tracer` carries phase spans (e.g.
    /// [`obs::Phase::Packing`]) when the scenario traces; cached preparation
    /// passes a disabled tracer.
    fn prepare(
        &self,
        graph: &Graph,
        tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        let _ = tracer;
        Ok(CompileArtifacts::graph_only(graph))
    }

    /// Phase two: simulate the payload on `net` using the `artifacts` this
    /// compiler's [`Compiler::prepare`] built for `net`'s graph, returning the
    /// payload outputs together with the compiler's typed diagnostics.
    ///
    /// `make` returns a fresh payload instance per call; compilers that
    /// re-simulate from a committed prefix (the rewind compiler) or host one
    /// instance per node (the async executor) simply call it again.
    ///
    /// Implementations re-check the adversary role against [`Network::role`]
    /// ([`validate_role`], the cheap guard for direct callers) and nothing
    /// else: the graph was judged by the `prepare` that produced `artifacts`.
    /// Artifacts whose payload is not the one `prepare` builds are a
    /// [`ScenarioError::ArtifactMismatch`].
    fn execute(
        &self,
        artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError>;
}

/// The role check every compiler shares: its [`CompilerKind`] must support
/// the configured adversary role.  [`ScenarioBuilder::build`] runs it once,
/// ahead of the pair's [`Verdict`]; compilers repeat it at the top of
/// `execute`.
pub fn validate_role<C: Compiler + ?Sized>(
    compiler: &C,
    role: AdversaryRole,
) -> Result<(), ScenarioError> {
    if compiler.kind().supports(role) {
        Ok(())
    } else {
        Err(ScenarioError::RoleMismatch {
            compiler: compiler.name(),
            kind: compiler.kind(),
            role,
        })
    }
}

/// The no-defence baseline: each payload round is one network round
/// (wraps [`run_on_network`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Uncompiled;

impl Compiler for Uncompiled {
    fn name(&self) -> String {
        "uncompiled".into()
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::Baseline
    }
    fn execute(
        &self,
        _artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        Ok((run_on_network(&mut *make(), net), CompilerNotes::None))
    }
}

/// The fault-free reference: messages are delivered verbatim without touching
/// the network (wraps [`run_fault_free`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultFree;

impl Compiler for FaultFree {
    fn name(&self) -> String {
        "fault-free".into()
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::Reference
    }
    fn execute(
        &self,
        _artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        _net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        Ok((run_fault_free(&mut *make()), CompilerNotes::None))
    }
}

/// Entry point of the fluent pipeline; see the module docs.
pub struct Scenario;

impl Scenario {
    /// Start configuring a scenario on `graph`.
    pub fn on(graph: Graph) -> ScenarioBuilder {
        ScenarioBuilder {
            graph,
            payload: None,
            role: AdversaryRole::Byzantine,
            strategy: None,
            budget: CorruptionBudget::None,
            seed: 0,
            compiler: None,
            check_fault_free: true,
            trace: obs::TraceSpec::off(),
            verdict: None,
        }
    }
}

/// Fluent configuration for one scenario run.
///
/// Built by [`Scenario::on`]; every setter returns `self`, and
/// [`ScenarioBuilder::build`] / [`ScenarioBuilder::run`] return every
/// configuration error.
///
/// ```
/// use congest_sim::adversary::{AdversaryRole, CorruptionBudget, EclipseNode};
/// use congest_sim::scenario::{doctest_payload, Scenario};
/// use netgraph::generators;
///
/// // Eclipse node 0 of a torus while running the id-exchange demo payload.
/// let g = generators::torus(3, 4);
/// let payload_graph = g.clone();
/// let report = Scenario::on(g)
///     .payload(move || doctest_payload(payload_graph.clone()))
///     .adversary(
///         AdversaryRole::Byzantine,
///         EclipseNode::new(0, 2),
///         CorruptionBudget::Mobile { f: 2 },
///     )
///     .seed(11)
///     .run()
///     .unwrap();
/// assert_eq!(report.network_rounds, 1);
/// assert_eq!(report.metrics.corrupted_edge_rounds, 2);
/// ```
pub struct ScenarioBuilder {
    graph: Graph,
    payload: Option<PayloadFactory>,
    role: AdversaryRole,
    strategy: Option<Box<dyn AdversaryStrategy>>,
    budget: CorruptionBudget,
    seed: u64,
    compiler: Option<Box<dyn Compiler>>,
    check_fault_free: bool,
    trace: obs::TraceSpec,
    verdict: Option<Verdict>,
}

impl ScenarioBuilder {
    /// The payload algorithm, supplied as a factory of fresh instances.
    pub fn payload<A, F>(mut self, make: F) -> Self
    where
        A: CongestAlgorithm + Send + 'static,
        F: Fn() -> A + 'static,
    {
        self.payload = Some(Box::new(move || Box::new(make()) as BoxedAlgorithm));
        self
    }

    /// The payload as a pre-boxed factory (used by generic drivers such as
    /// [`matrix::run_cell`]).
    pub fn payload_boxed<F>(mut self, make: F) -> Self
    where
        F: Fn() -> BoxedAlgorithm + 'static,
    {
        self.payload = Some(Box::new(make));
        self
    }

    /// The adversary: role (eavesdropper / byzantine), strategy and budget.
    pub fn adversary<S>(self, role: AdversaryRole, strategy: S, budget: CorruptionBudget) -> Self
    where
        S: AdversaryStrategy + 'static,
    {
        self.adversary_boxed(role, Box::new(strategy), budget)
    }

    /// [`ScenarioBuilder::adversary`] with a pre-boxed strategy.
    pub fn adversary_boxed(
        mut self,
        role: AdversaryRole,
        strategy: Box<dyn AdversaryStrategy>,
        budget: CorruptionBudget,
    ) -> Self {
        self.role = role;
        self.strategy = Some(strategy);
        self.budget = budget;
        self
    }

    /// Seed for the run's randomness (adversary fabrication and, by
    /// convention, node-private randomness derived via [`Network::node_rng`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The compiler to protect the payload with (default: [`Uncompiled`]).
    pub fn compiled_with<C: Compiler + 'static>(self, compiler: C) -> Self {
        self.compiled_with_boxed(Box::new(compiler))
    }

    /// [`ScenarioBuilder::compiled_with`] with a pre-boxed compiler.
    pub fn compiled_with_boxed(mut self, compiler: Box<dyn Compiler>) -> Self {
        self.compiler = Some(compiler);
        self
    }

    /// Whether to also run the payload fault-free and record agreement in the
    /// report (default: on).  Disable for very expensive payloads.
    pub fn check_against_fault_free(mut self, check: bool) -> Self {
        self.check_fault_free = check;
        self
    }

    /// How the run should trace (default: [`obs::TraceSpec::off`], the
    /// single-branch no-op path).  With a ring spec, the compiled execution
    /// emits phase spans and point events into a per-run tracer whose
    /// harvested stream lands on [`RunReport::trace`] — a pure function of
    /// `(scenario, seed)`, byte-identical at any thread or host count.
    pub fn trace(mut self, spec: obs::TraceSpec) -> Self {
        self.trace = spec;
        self
    }

    /// Supply the `(graph, compiler)` pair's [`Verdict`] (typically from a
    /// campaign artifact cache) instead of letting [`ScenarioBuilder::build`]
    /// call [`Compiler::prepare`] itself.  It must come from an
    /// identically-parameterised compiler on an equal graph — the contract a
    /// `(GraphDef, CompilerDef)`-keyed cache provides by construction.  An
    /// `Ok` runs on the artifacts' CSR-warmed graph; an `Err` is the cell's
    /// outcome unless the role check rejects it first.
    pub fn verdict(mut self, verdict: Verdict) -> Self {
        self.verdict = Some(verdict);
        self
    }

    /// Judge the configuration into a runnable [`BuiltScenario`].
    ///
    /// All *configuration* errors surface here, in this order — empty graph,
    /// missing payload, role / compiler mismatch, then the pair's [`Verdict`]
    /// (the supplied one, or [`Compiler::prepare`] called now) — so an invalid
    /// grid cell fails before any round executes.
    pub fn build(self) -> Result<BuiltScenario, ScenarioError> {
        if self.graph.node_count() == 0 {
            return Err(ScenarioError::EmptyGraph);
        }
        let payload = self.payload.ok_or(ScenarioError::MissingPayload)?;
        let compiler = self
            .compiler
            .unwrap_or_else(|| Box::new(Uncompiled) as Box<dyn Compiler>);
        validate_role(&*compiler, self.role)?;
        let supplied = self.verdict.transpose()?;

        let mut tracer = self.trace.build_tracer();
        tracer.span_open(obs::Phase::GraphBuild);
        let mut net = Network::new(
            self.graph,
            self.role,
            self.strategy.unwrap_or_else(|| Box::new(NoAdversary)),
            self.budget.clone(),
            self.seed,
        );
        tracer.span_close(obs::Phase::GraphBuild);
        // Force the lazy CSR adjacency index under its own span, so compilers
        // downstream see a warm index and the build cost is attributed here.
        tracer.span_open(obs::Phase::CsrIndex);
        let _ = net.graph().csr();
        tracer.span_close(obs::Phase::CsrIndex);
        // Phase one: take the supplied artifacts, or prepare them now on the
        // same tracer so packing spans land in the cell's own trace.
        let artifacts = match supplied {
            Some(artifacts) => artifacts,
            None => std::sync::Arc::new(compiler.prepare(net.graph(), &mut tracer)?),
        };
        net.install_tracer(tracer);
        Ok(BuiltScenario {
            net,
            payload,
            budget: self.budget,
            compiler,
            check_fault_free: self.check_fault_free,
            artifacts,
        })
    }

    /// Validate and execute in one call.
    pub fn run(self) -> Result<RunReport, ScenarioError> {
        self.build()?.run()
    }

    /// Validate the adversary configuration and hand back the bare
    /// [`Network`], for primitives that are not round-by-round payload
    /// algorithms (secure unicast/broadcast, the RS scheduler).  The payload
    /// and compiler fields are ignored.
    pub fn network(self) -> Result<Network, ScenarioError> {
        if self.graph.node_count() == 0 {
            return Err(ScenarioError::EmptyGraph);
        }
        Ok(Network::new(
            self.graph,
            self.role,
            self.strategy.unwrap_or_else(|| Box::new(NoAdversary)),
            self.budget,
            self.seed,
        ))
    }
}

/// A scenario whose configuration was accepted — network built, artifacts
/// prepared — ready to execute once.
pub struct BuiltScenario {
    net: Network,
    payload: PayloadFactory,
    budget: CorruptionBudget,
    compiler: Box<dyn Compiler>,
    check_fault_free: bool,
    artifacts: std::sync::Arc<CompileArtifacts>,
}

impl BuiltScenario {
    /// Execute the scenario and gather the [`RunReport`].
    pub fn run(self) -> Result<RunReport, ScenarioError> {
        let mut net = self.net;
        // The probe instance doubles as the fault-free reference run, so a
        // scenario costs at most one payload construction beyond the
        // compiled execution itself.
        let mut probe = (self.payload)();
        let payload_name = probe.name();
        let payload_rounds = probe.rounds();
        // A Reference-kind compiler *is* the fault-free run; don't pay for it
        // twice — its outputs are recorded as the reference below.
        let is_reference = self.compiler.kind() == CompilerKind::Reference;
        let fault_free = if self.check_fault_free && !is_reference {
            Some(run_fault_free(&mut *probe))
        } else {
            None
        };
        drop(probe);

        let adversary = net.adversary_name();
        let result = self
            .compiler
            .execute(&self.artifacts, &self.payload, &mut net);
        let trace = net.take_tracer().finish();
        let (outputs, notes) = result?;
        let fault_free = if self.check_fault_free && is_reference {
            Some(outputs.clone())
        } else {
            fault_free
        };

        Ok(RunReport {
            payload: payload_name,
            compiler: self.compiler.name(),
            compiler_kind: self.compiler.kind(),
            adversary,
            role: net.role(),
            budget: self.budget,
            seed: net.run_seed(),
            payload_rounds,
            network_rounds: net.round(),
            outputs,
            fault_free,
            notes,
            metrics: net.metrics().clone(),
            view: net.view_log().clone(),
            trace,
        })
    }
}

/// Everything a scenario run produced, replacing the ad-hoc `println!`
/// tables of the old experiment harness.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Payload display name.
    pub payload: String,
    /// Compiler display name.
    pub compiler: String,
    /// What the compiler defends against (drives e.g. the baseline exemption
    /// in matrix verdicts).
    pub compiler_kind: CompilerKind,
    /// Adversary strategy display name.
    pub adversary: String,
    /// The adversary's role.
    pub role: AdversaryRole,
    /// The adversary's budget.
    pub budget: CorruptionBudget,
    /// The run seed.
    pub seed: u64,
    /// Rounds of the (uncompiled) payload.
    pub payload_rounds: usize,
    /// Network rounds the compiled execution consumed.
    pub network_rounds: usize,
    /// Per-node payload outputs.
    pub outputs: Vec<Output>,
    /// The fault-free reference outputs, when requested.
    pub fault_free: Option<Vec<Output>>,
    /// The compiler's typed diagnostics (rewinds, correction verdicts, key
    /// rounds, packing quality, …).
    pub notes: CompilerNotes,
    /// Round / message / bandwidth / corruption counters.
    pub metrics: Metrics,
    /// What the eavesdropper saw (empty for byzantine roles).
    pub view: ViewLog,
    /// Harvested trace: retained events (virtual-time only), the out-of-band
    /// per-phase wall profile, and the tracer's counters.  Empty and
    /// all-zero unless the scenario was built with
    /// [`ScenarioBuilder::trace`].  Its `Debug` form (which campaign
    /// fingerprints include) carries only counts and an event-stream digest,
    /// never wall durations.
    pub trace: obs::RunTrace,
}

impl RunReport {
    /// Whether the outputs equal the fault-free reference (`None` when the
    /// reference run was disabled).
    pub fn agrees_with_fault_free(&self) -> Option<bool> {
        self.fault_free.as_ref().map(|ff| ff == &self.outputs)
    }

    /// Network rounds per payload round.
    pub fn overhead(&self) -> f64 {
        self.network_rounds as f64 / self.payload_rounds.max(1) as f64
    }

    /// The per-phase wall-clock profile of the run (all-zero when the
    /// scenario was not traced).
    pub fn profile(&self) -> &obs::PhaseProfile {
        &self.trace.profile
    }

    /// Whether this run counts as correct for grid verdicts: baseline-kind
    /// compilers are exempt (an uncompiled run is *supposed* to be
    /// corruptible); everything else must not diverge from the fault-free
    /// reference.  The harness campaign report's per-cell verdict.
    pub fn protected_cell_ok(&self) -> bool {
        self.compiler_kind == CompilerKind::Baseline || self.agrees_with_fault_free() != Some(false)
    }

    /// Whether any plaintext word from `secrets` appears verbatim in the
    /// adversary's recorded view (the operational leak check of the security
    /// experiments).
    pub fn view_contains_any(&self, secrets: &[u64]) -> bool {
        self.view.entries.iter().any(|entry| {
            [&entry.forward, &entry.backward].into_iter().any(|side| {
                side.as_ref()
                    .is_some_and(|p| p.iter().any(|w| secrets.contains(w)))
            })
        })
    }

    /// Header row matching [`RunReport::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<22} {:<20} {:<22} {:>7} {:>9} {:>9} {:>10} {:>8} {:<20}",
            "payload",
            "compiler",
            "adversary",
            "rounds",
            "net rnds",
            "overhead",
            "corrupted",
            "agrees",
            "notes"
        )
    }

    /// One formatted results row (the examples' tables).
    pub fn table_row(&self) -> String {
        format!(
            "{:<22} {:<20} {:<22} {:>7} {:>9} {:>9.1} {:>10} {:>8} {:<20}",
            self.payload,
            self.compiler,
            self.adversary,
            self.payload_rounds,
            self.network_rounds,
            self.overhead(),
            self.metrics.corrupted_edge_rounds,
            match self.agrees_with_fault_free() {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            },
            if self.notes.is_none() {
                "-".into()
            } else {
                format!("notes={}", self.notes.summary())
            }
        )
    }
}

impl core::fmt::Display for RunReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} via {} under {} ({:?}): {} payload rounds -> {} network rounds ({:.1}x), {}",
            self.payload,
            self.compiler,
            self.adversary,
            self.role,
            self.payload_rounds,
            self.network_rounds,
            self.overhead(),
            match self.agrees_with_fault_free() {
                Some(true) => "matches fault-free",
                Some(false) => "DIVERGES from fault-free",
                None => "agreement unchecked",
            }
        )
    }
}

/// A 1-round doctest/demo payload: every node sends its id to all neighbours
/// and outputs the sorted ids it received.
pub fn doctest_payload(graph: Graph) -> impl CongestAlgorithm {
    struct ExchangeIds {
        graph: Graph,
        received: Vec<Vec<u64>>,
    }
    impl CongestAlgorithm for ExchangeIds {
        fn name(&self) -> String {
            "exchange-ids".into()
        }
        fn rounds(&self) -> usize {
            1
        }
        fn send_into(&mut self, _round: usize, out: &mut crate::traffic::Traffic) {
            out.begin_round(&self.graph);
            for v in self.graph.nodes() {
                for &(u, _) in self.graph.neighbors(v) {
                    out.send(&self.graph, v, u, [v as u64]);
                }
            }
        }
        fn receive(&mut self, _round: usize, inbox: &crate::traffic::Traffic) {
            for v in self.graph.nodes() {
                for (_, payload) in inbox.inbox(&self.graph, v) {
                    self.received[v].push(payload[0]);
                }
                self.received[v].sort_unstable();
            }
        }
        fn outputs(&self) -> Vec<Output> {
            self.received.clone()
        }
    }
    let n = graph.node_count();
    ExchangeIds {
        graph,
        received: vec![Vec::new(); n],
    }
}

pub mod matrix {
    //! The adversary half of the grid vocabulary ([`AdversaryDef`]; graphs
    //! are `netgraph::GraphDef`, compilers `mobile_congest_core`'s
    //! `CompilerDef`), the standard zoos as defs, and the per-cell entry
    //! point.
    //!
    //! [`run_cell`] runs one cell from plain parts; the one grid engine is
    //! `harness::Campaign` in the `mobile-congest-harness` crate, a resolved
    //! `CampaignSpec` that drives it from a deterministic worker pool (seed
    //! repetitions, aggregation, incompatible cells recorded as typed skips
    //! instead of panics) — `.threads(1)` for a plain sequential sweep.

    use super::{BoxedAlgorithm, Compiler, RunReport, Scenario, ScenarioError, Verdict};
    use crate::adversary::{AdversaryRole, AdversaryStrategy, CorruptionBudget};
    use netgraph::Graph;

    /// A serializable description of one adversary configuration: the
    /// strategy family as *data* (kind + parameters); a cell draws its
    /// strategy with [`AdversaryDef::strategy`].  The `harness` spec layer
    /// serializes these to JSON.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum AdversaryDef {
        /// [`RandomMobile`](crate::adversary::RandomMobile): `f` uniformly
        /// random edges per round, byzantine.
        RandomMobile {
            /// Per-round edge budget.
            f: usize,
        },
        /// [`SweepMobile`](crate::adversary::SweepMobile): a deterministic
        /// window sweeping the edge list.
        SweepMobile {
            /// Per-round edge budget.
            f: usize,
        },
        /// [`GreedyHeaviest`](crate::adversary::GreedyHeaviest): the `f`
        /// heaviest-loaded edges of the current round.
        GreedyHeaviest {
            /// Per-round edge budget.
            f: usize,
            /// How controlled messages are rewritten.
            mode: crate::adversary::CorruptionMode,
        },
        /// [`AdaptiveHeaviest`](crate::adversary::AdaptiveHeaviest): targets
        /// the previous round's observed loads.
        AdaptiveHeaviest {
            /// Per-round edge budget.
            f: usize,
        },
        /// [`EclipseNode`](crate::adversary::EclipseNode): rotates over one
        /// node's incident edges.
        Eclipse {
            /// The eclipsed node.
            node: usize,
            /// Per-round edge budget.
            f: usize,
            /// How controlled messages are rewritten.
            mode: crate::adversary::CorruptionMode,
        },
        /// [`BurstAdversary`](crate::adversary::BurstAdversary) under a
        /// whole-execution round-error-rate budget.
        Burst {
            /// Quiet rounds between bursts.
            quiet: usize,
            /// Burst length in rounds.
            burst: usize,
            /// Edges corrupted per burst round.
            per_round: usize,
            /// Whole-execution edge-round budget.
            total: usize,
        },
        /// An eavesdropping [`RandomMobile`](crate::adversary::RandomMobile):
        /// reads (never rewrites) `f` random edges per round.
        Eavesdropper {
            /// Per-round edge budget.
            f: usize,
        },
        /// [`SynthesizedSchedule`](crate::adversary::SynthesizedSchedule): a
        /// concrete per-round edge-corruption schedule, applied cyclically
        /// (round `r` corrupts entry `r % len`).  This is the adversary the
        /// red-team search synthesizes and the shrinker minimizes — the whole
        /// attack is data, so counterexamples replay from their spec.
        Synthesized {
            /// Per-round corrupted-edge lists (cyclic).
            schedule: Vec<Vec<usize>>,
            /// How controlled messages are rewritten.
            mode: crate::adversary::CorruptionMode,
        },
    }

    impl AdversaryDef {
        /// The display name campaign grids use, matching the historical
        /// hand-built zoo names (`random-mobile`, `greedy-heaviest`,
        /// `eclipse(v=0)`, …).
        pub fn display_name(&self) -> String {
            match self {
                AdversaryDef::RandomMobile { .. } => "random-mobile".into(),
                AdversaryDef::SweepMobile { .. } => "sweep-mobile".into(),
                AdversaryDef::GreedyHeaviest { .. } => "greedy-heaviest".into(),
                AdversaryDef::AdaptiveHeaviest { .. } => "adaptive-heaviest".into(),
                AdversaryDef::Eclipse { node, .. } => format!("eclipse(v={node})"),
                AdversaryDef::Burst { .. } => "burst".into(),
                AdversaryDef::Eavesdropper { .. } => "eavesdropper".into(),
                AdversaryDef::Synthesized { schedule, .. } => format!(
                    "synthesized(r={},f={})",
                    schedule.len(),
                    synthesized_budget_f(schedule)
                ),
            }
        }

        /// The adversary's role (byzantine for everything except the
        /// eavesdropper).
        pub fn role(&self) -> AdversaryRole {
            match self {
                AdversaryDef::Eavesdropper { .. } => AdversaryRole::Eavesdropper,
                _ => AdversaryRole::Byzantine,
            }
        }

        /// The corruption budget the def implies.
        pub fn budget(&self) -> CorruptionBudget {
            match *self {
                AdversaryDef::RandomMobile { f }
                | AdversaryDef::SweepMobile { f }
                | AdversaryDef::GreedyHeaviest { f, .. }
                | AdversaryDef::AdaptiveHeaviest { f }
                | AdversaryDef::Eclipse { f, .. }
                | AdversaryDef::Eavesdropper { f } => CorruptionBudget::Mobile { f },
                AdversaryDef::Burst { total, .. } => CorruptionBudget::RoundErrorRate { total },
                AdversaryDef::Synthesized { ref schedule, .. } => CorruptionBudget::Mobile {
                    f: synthesized_budget_f(schedule),
                },
            }
        }

        /// A fresh strategy for one cell; `seed` is the cell seed, so
        /// strategies with internal randomness stay reproducible per cell.
        pub fn strategy(&self, seed: u64) -> Box<dyn AdversaryStrategy> {
            use crate::adversary::{
                AdaptiveHeaviest, BurstAdversary, EclipseNode, GreedyHeaviest, RandomMobile,
                SweepMobile, SynthesizedSchedule,
            };
            match self {
                AdversaryDef::RandomMobile { f } => Box::new(RandomMobile::new(*f, seed)),
                AdversaryDef::SweepMobile { f } => Box::new(SweepMobile::new(*f)),
                AdversaryDef::GreedyHeaviest { f, mode } => {
                    Box::new(GreedyHeaviest::new(*f).with_mode(*mode))
                }
                AdversaryDef::AdaptiveHeaviest { f } => Box::new(AdaptiveHeaviest::new(*f)),
                AdversaryDef::Eclipse { node, f, mode } => {
                    Box::new(EclipseNode::new(*node, *f).with_mode(*mode))
                }
                AdversaryDef::Burst {
                    quiet,
                    burst,
                    per_round,
                    ..
                } => Box::new(BurstAdversary::new(*quiet, *burst, *per_round, seed)),
                AdversaryDef::Eavesdropper { f } => Box::new(RandomMobile::new(*f, seed)),
                AdversaryDef::Synthesized { schedule, mode } => {
                    Box::new(SynthesizedSchedule::new(schedule.clone()).with_mode(*mode))
                }
            }
        }
    }

    /// The per-round edge budget a synthesized schedule implies: its longest
    /// per-round entry, at least 1 (mirrors
    /// [`SynthesizedSchedule::max_edges_per_round`](crate::adversary::SynthesizedSchedule::max_edges_per_round)).
    fn synthesized_budget_f(schedule: &[Vec<usize>]) -> usize {
        schedule
            .iter()
            .map(|edges| edges.len())
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// The standard topology zoo for campaign grids: the classic families the
    /// compilers target (clique, circulant, grid) plus the expanded set —
    /// 2-D torus, seeded random-regular expander, Watts–Strogatz small
    /// world, ring of cliques and barbell.  `seed` drives the randomized
    /// generators, so two zoos with the same seed are identical.  Sizes are
    /// chosen so a full zoo × [`adversary_zoo_defs`] × compiler grid stays
    /// fast enough for tests while still exercising every generator.
    pub fn graph_zoo_defs(seed: u64) -> Vec<netgraph::GraphDef> {
        use netgraph::GraphDef;
        vec![
            GraphDef::complete(12),
            GraphDef::circulant(18, 4),
            GraphDef::grid(4, 4),
            GraphDef::torus(4, 5),
            GraphDef::expander(24, 8, seed),
            GraphDef::watts_strogatz(24, 6, 0.2, seed ^ 0x5A11),
            GraphDef::ring_of_cliques(4, 5),
            GraphDef::barbell(5, 2),
        ]
    }

    /// The standard adversary zoo for campaign grids: every strategy family
    /// (random / sweeping / greedy / adaptive / eclipse / bursty) under the
    /// budgets that make them meaningful, plus an eavesdropper so secrecy
    /// compilers run too.  `f` is the per-round edge budget.
    pub fn adversary_zoo_defs(f: usize) -> Vec<AdversaryDef> {
        use crate::adversary::CorruptionMode;
        let f = f.max(1);
        vec![
            AdversaryDef::RandomMobile { f },
            AdversaryDef::SweepMobile { f },
            AdversaryDef::GreedyHeaviest {
                f,
                mode: CorruptionMode::FlipLowBit,
            },
            AdversaryDef::AdaptiveHeaviest { f },
            AdversaryDef::Eclipse {
                node: 0,
                f,
                mode: CorruptionMode::Drop,
            },
            AdversaryDef::Burst {
                quiet: 6,
                burst: 2,
                per_round: 4 * f,
                total: 12 * f,
            },
            AdversaryDef::Eavesdropper { f: f + 1 },
        ]
    }

    /// Execute one grid cell: `payload` on `graph` under `adversary` through
    /// `compiler`, with the given seed and trace spec.  `payload` receives
    /// `graph` and returns a fresh instance on every call.
    ///
    /// This is the single per-cell engine entry point: the `harness` campaign
    /// engine calls it from worker threads (everything a cell needs is
    /// constructed inside the call, so nothing non-`Send` ever crosses a
    /// thread boundary).  The outcome — the event stream on
    /// [`RunReport::trace`] included — is a pure function of the parts and
    /// the seed, which is what makes parallel campaigns byte-identical at any
    /// thread count.
    ///
    /// `verdict` optionally supplies the `(graph, compiler)` pair's [`Verdict`]
    /// (the campaign artifact cache does).  With `Some(Ok(..))` the scenario
    /// and its payload run on clones of the artifacts' graph, which share its
    /// warm memos, with `Some(Err(..))` the cell
    /// is that error (a role mismatch still takes precedence), and with
    /// `None` [`Compiler::prepare`] runs inside the cell.  Because a verdict
    /// is a pure function of `(graph, compiler)`, all three produce
    /// byte-identical outcomes.
    pub fn run_cell(
        graph: &Graph,
        adversary: &AdversaryDef,
        compiler: Box<dyn Compiler>,
        payload: impl Fn(&Graph) -> BoxedAlgorithm + 'static,
        seed: u64,
        trace: obs::TraceSpec,
        verdict: Option<Verdict>,
    ) -> Result<RunReport, ScenarioError> {
        let graph = match &verdict {
            Some(Ok(artifacts)) => artifacts.graph(),
            _ => graph,
        };
        let payload_graph = graph.clone();
        let mut builder = Scenario::on(graph.clone())
            .payload_boxed(move || payload(&payload_graph))
            .adversary_boxed(
                adversary.role(),
                adversary.strategy(seed),
                adversary.budget(),
            )
            .seed(seed)
            .compiled_with_boxed(compiler)
            .trace(trace);
        if let Some(verdict) = verdict {
            builder = builder.verdict(verdict);
        }
        builder.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CorruptionMode, FixedEdges, RandomMobile};
    use netgraph::generators;

    fn exchange(graph: &Graph) -> impl CongestAlgorithm {
        doctest_payload(graph.clone())
    }

    #[test]
    fn missing_payload_is_a_typed_error() {
        let err = Scenario::on(generators::cycle(4)).run().unwrap_err();
        assert_eq!(err, ScenarioError::MissingPayload);
    }

    #[test]
    fn empty_graph_is_a_typed_error() {
        let g = Graph::new(0);
        let err = Scenario::on(g.clone())
            .payload(move || doctest_payload(g.clone()))
            .run()
            .unwrap_err();
        assert_eq!(err, ScenarioError::EmptyGraph);
    }

    #[test]
    fn default_compiler_is_the_uncompiled_baseline() {
        let g = generators::cycle(5);
        let gg = g.clone();
        let report = Scenario::on(g.clone())
            .payload(move || exchange(&gg))
            .run()
            .unwrap();
        assert_eq!(report.compiler, "uncompiled");
        assert_eq!(report.agrees_with_fault_free(), Some(true));
        assert_eq!(report.network_rounds, 1);
    }

    #[test]
    fn fault_free_compiler_never_touches_the_network() {
        let g = generators::cycle(5);
        let target = g.edge_between(0, 1).unwrap();
        let gg = g.clone();
        let report = Scenario::on(g)
            .payload(move || exchange(&gg))
            .adversary(
                AdversaryRole::Byzantine,
                FixedEdges::new(vec![target]).with_mode(CorruptionMode::Constant(99)),
                CorruptionBudget::Static(vec![target]),
            )
            .compiled_with(FaultFree)
            .run()
            .unwrap();
        assert_eq!(report.network_rounds, 0);
        assert_eq!(report.metrics.corrupted_messages, 0);
        assert_eq!(report.agrees_with_fault_free(), Some(true));
    }

    #[test]
    fn eavesdropper_view_is_captured_in_the_report() {
        let g = generators::path(3);
        let e01 = g.edge_between(0, 1).unwrap();
        let gg = g.clone();
        let report = Scenario::on(g)
            .payload(move || exchange(&gg))
            .adversary(
                AdversaryRole::Eavesdropper,
                FixedEdges::new(vec![e01]),
                CorruptionBudget::Static(vec![e01]),
            )
            .run()
            .unwrap();
        assert_eq!(report.view.len(), 1);
        assert!(report.view_contains_any(&[0]));
        assert_eq!(report.agrees_with_fault_free(), Some(true));
    }

    #[test]
    fn kind_role_compatibility() {
        use AdversaryRole::*;
        assert!(CompilerKind::Baseline.supports(Byzantine));
        assert!(CompilerKind::Baseline.supports(Eavesdropper));
        assert!(CompilerKind::Resilient.supports(Byzantine));
        assert!(!CompilerKind::Resilient.supports(Eavesdropper));
        assert!(!CompilerKind::Secure.supports(Byzantine));
        assert!(CompilerKind::Secure.supports(Eavesdropper));
        assert!(!CompilerKind::RateResilient.supports(Eavesdropper));
    }

    #[test]
    fn network_builder_validates_and_configures() {
        let g = generators::cycle(6);
        let mut net = Scenario::on(g)
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(1, 3),
                CorruptionBudget::Mobile { f: 1 },
            )
            .seed(3)
            .network()
            .unwrap();
        let g = net.graph().clone();
        for _ in 0..2 {
            let _ = net.exchange(crate::traffic::Traffic::new(&g));
        }
        assert_eq!(net.round(), 2);
        assert!(Scenario::on(Graph::new(0)).network().is_err());
    }

    #[test]
    fn report_table_row_is_well_formed() {
        let g = generators::cycle(4);
        let gg = g.clone();
        let report = Scenario::on(g)
            .payload(move || exchange(&gg))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(1, 1),
                CorruptionBudget::Mobile { f: 1 },
            )
            .run()
            .unwrap();
        assert!(!RunReport::table_header().is_empty());
        assert!(report.table_row().contains("uncompiled"));
        assert!(!format!("{report}").is_empty());
    }

    /// A resilient-kind shim whose `prepare` counts its calls and rejects
    /// graphs under five nodes — role and verdict precedence without the
    /// core compilers.
    struct Picky(std::rc::Rc<std::cell::Cell<usize>>);
    impl Compiler for Picky {
        fn name(&self) -> String {
            "picky".into()
        }
        fn kind(&self) -> CompilerKind {
            CompilerKind::Resilient
        }
        fn prepare(
            &self,
            graph: &Graph,
            _tracer: &mut obs::Tracer,
        ) -> Result<CompileArtifacts, ScenarioError> {
            self.0.set(self.0.get() + 1);
            if graph.node_count() < 5 {
                return Err(ScenarioError::UnsupportedGraph {
                    compiler: self.name(),
                    reason: "fewer than five nodes".into(),
                });
            }
            Ok(CompileArtifacts::graph_only(graph))
        }
        fn execute(
            &self,
            artifacts: &CompileArtifacts,
            make: &dyn Fn() -> BoxedAlgorithm,
            net: &mut Network,
        ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
            Uncompiled.execute(artifacts, make, net)
        }
    }

    #[test]
    fn build_ranks_the_role_above_the_verdict_and_prepares_only_without_one() {
        let prepares = std::rc::Rc::new(std::cell::Cell::new(0));
        let on = |g: &Graph, role| {
            let gg = g.clone();
            Scenario::on(g.clone())
                .payload(move || exchange(&gg))
                .adversary(
                    role,
                    RandomMobile::new(1, 3),
                    CorruptionBudget::Mobile { f: 1 },
                )
                .compiled_with(Picky(prepares.clone()))
        };
        let (small, large) = (generators::cycle(4), generators::cycle(6));
        let rejected = ScenarioError::UnsupportedGraph {
            compiler: "picky".into(),
            reason: "fewer than five nodes".into(),
        };
        use AdversaryRole::{Byzantine, Eavesdropper};

        // No verdict supplied: `build` asks `prepare`, once, after the role.
        assert_eq!(on(&small, Byzantine).build().err(), Some(rejected.clone()));
        assert_eq!(prepares.get(), 1);
        assert!(matches!(
            on(&small, Eavesdropper).build().err(),
            Some(ScenarioError::RoleMismatch { .. })
        ));
        assert_eq!(prepares.get(), 1, "a role mismatch never reaches prepare");
        assert!(on(&large, Byzantine).run().is_ok());
        assert_eq!(prepares.get(), 2);

        // A supplied verdict is the outcome — `prepare` is not called again.
        let foreign = ScenarioError::InvalidParameter {
            compiler: "picky".into(),
            reason: "supplied".into(),
        };
        let supplied = on(&large, Byzantine).verdict(Err(foreign.clone()));
        assert_eq!(supplied.build().err(), Some(foreign.clone()));
        assert!(matches!(
            on(&large, Eavesdropper).verdict(Err(foreign)).build().err(),
            Some(ScenarioError::RoleMismatch { .. })
        ));
        let artifacts = std::sync::Arc::new(CompileArtifacts::graph_only(&large));
        let report = on(&large, Byzantine).verdict(Ok(artifacts)).run().unwrap();
        assert_eq!(report.compiler, "picky");
        assert_eq!(prepares.get(), 2);
    }
}
