//! [`CompilerDef`]: the paper's seven compilers — and the three pipeline
//! compilers beside them — as one serializable value that *is* the unified
//! `scenario` [`Compiler`].
//!
//! A def is a cheap, `Clone` parameter holder.  Its `prepare` opens with the
//! theorem's preconditions on the graph and on the def's own parameters — the
//! only place they are stated — so the wrapped constructors' panics and
//! `Option` returns become typed [`ScenarioError`]s; then everything derived
//! from the graph alone (star packings, greedy tree packings, cycle covers)
//! is built there, and everything seed- or adversary-dependent (key pools,
//! under-attack packings) inside `execute` from `net.graph()`.  That makes
//! one def, and one `prepare` outcome per graph, reusable across a whole
//! campaign grid — and the same value a spec parses into, a cache keys on
//! and a scenario runs:
//!
//! | Def | Wraps | Paper result | Kind |
//! |---|---|---|---|
//! | `Uncompiled` | [`congest_sim::scenario::Uncompiled`] | — | `Baseline` |
//! | `Async` | [`async_exec::AsyncExecutor`] | — | `Baseline` |
//! | `FaultFree` | [`congest_sim::scenario::FaultFree`] | — | `Reference` |
//! | `Clique` | `CliqueCompiler` | Theorem 1.6 | `Resilient` |
//! | `TreePacking` | `MobileByzantineCompiler` | Theorem 3.5 | `Resilient` |
//! | `CycleCover` | `CycleCoverCompiler` | Theorems 1.4 / 5.5 | `Resilient` |
//! | `Expander` | `run_expander_compiled` | Theorem 1.7 | `Resilient` |
//! | `Rewind` | `RewindCompiler` | Theorem 4.1 | `RateResilient` |
//! | `StaticToMobile` | `StaticToMobileCompiler` | Theorem 1.2 | `Secure` |
//! | `CongestionSensitive` | `CongestionSensitiveCompiler` | Theorem 1.3 | `Secure` |

use async_exec::{AsyncExecutor, ScheduleDef};

use crate::rate::RewindCompiler;
use crate::resilient::{
    rs_error_capacity, run_expander_compiled, CliqueCompiler, CycleCoverCompiler,
    MobileByzantineCompiler, MAX_ARCS,
};
use crate::secure::{broadcast_packing, CongestionSensitiveCompiler, StaticToMobileCompiler};
use congest_sim::network::Network;
use congest_sim::scenario::{
    validate_role, BoxedAlgorithm, CompileArtifacts, Compiler, CompilerKind, CompilerNotes,
    FaultFree, ScenarioError, Uncompiled,
};
use congest_sim::traffic::Output;
use netgraph::connectivity::edge_connectivity;
use netgraph::traversal::is_connected;
use netgraph::tree_packing::{
    augmented_low_depth_packing_traced, greedy_low_depth_packing, load_floor, star_packing,
    TreePacking,
};
use netgraph::{Graph, NodeId, PackingVersion};

/// Whether `g` is the complete graph on its node set.
fn is_complete(g: &Graph) -> bool {
    let n = g.node_count();
    g.edge_count() == n * n.saturating_sub(1) / 2
}

/// Shared sizing for greedy packings.  The check certifies three properties
/// of the graph:
///
/// * edge connectivity `λ ≥ 2f + 1` (the information-theoretic floor),
/// * `k (n-1) <= 2 eta m` edge capacity (enough room for the trees at all),
/// * the graph's [`load_floor`] — the best max-edge-load any `k`-tree packing
///   can achieve — stays within the correction code's [`rs_error_capacity`],
///   since a heaviest-edge adversary fails every tree scheduled over one edge
///   at once.
///
/// Passing it does not predict correction.  It reads the graph's floor, not
/// the load of the packing that is built, and a mobile adversary is not held
/// to one edge over a scheduling window: Lemma 3.3 bounds its failures per
/// window by `t_RS·c_RS·f·η`, which exceeds the capacity on every packing of
/// the zoo's sparse graphs.  At `graph_zoo_defs(2024)`, `small-world(24,6)` passes
/// and its v2 packing still leaves residual mismatches under
/// `eclipse(v=0)`.  ROADMAP item 21 is the regime check that would predict
/// it.
fn validate_packing_feasible(
    compiler: &str,
    g: &Graph,
    k: usize,
    eta: usize,
    f: usize,
) -> Result<(), ScenarioError> {
    validate_connectivity_floor(compiler, g, f)?;
    let n = g.node_count();
    if k * n.saturating_sub(1) > 2 * eta * g.edge_count() {
        return Err(ScenarioError::UnsupportedGraph {
            compiler: compiler.to_string(),
            reason: format!(
                "too sparse to pack {k} trees at load {eta}: {} edges for {} nodes",
                g.edge_count(),
                n
            ),
        });
    }
    let floor = load_floor(g, k);
    let capacity = rs_error_capacity(k);
    if floor > capacity {
        return Err(ScenarioError::UnsupportedGraph {
            compiler: compiler.to_string(),
            reason: format!(
                "every {k}-tree packing has an edge of load >= {floor}, beyond the \
                 correction code's error capacity {capacity}"
            ),
        });
    }
    Ok(())
}

/// The information-theoretic floor lambda >= 2f+1, read off the graph's
/// memoised minimum cut ([`Graph::min_cut`]): every compiler that judges or
/// measures one graph shares its single max-flow sweep.
fn validate_connectivity_floor(compiler: &str, g: &Graph, f: usize) -> Result<(), ScenarioError> {
    if edge_connectivity(g) > 2 * f {
        return Ok(());
    }
    Err(insufficient_connectivity(compiler, g, f))
}

/// The typed error of a graph below the lambda >= 2f+1 floor, exact lambda
/// included.
fn insufficient_connectivity(compiler: &str, g: &Graph, f: usize) -> ScenarioError {
    ScenarioError::InsufficientConnectivity {
        compiler: compiler.to_string(),
        needed: 2 * f + 1,
        found: edge_connectivity(g),
    }
}

/// The sketch-based correction packs an arc id into 16 bits of every sketch
/// element (`pack_element`), so every compiler that runs it — clique,
/// tree-packing, expander, rewind — is limited to graphs of [`MAX_ARCS`] arcs
/// and opens its `prepare` with this check.
fn validate_arc_ids(compiler: &str, g: &Graph) -> Result<(), ScenarioError> {
    if g.arc_count() > MAX_ARCS {
        return Err(ScenarioError::UnsupportedGraph {
            compiler: compiler.to_string(),
            reason: format!(
                "{} arcs exceed the {MAX_ARCS} the correction sketches can address",
                g.arc_count()
            ),
        });
    }
    Ok(())
}

/// A count the compiler cannot run with at zero: a packing of no trees or
/// colour classes leaves the majority argument nothing to vote over (and the
/// packing constructors assert on it), a zero-word frame holds no message.
fn validate_at_least_one(compiler: &str, what: &str, value: usize) -> Result<(), ScenarioError> {
    if value == 0 {
        return Err(ScenarioError::InvalidParameter {
            compiler: compiler.to_string(),
            reason: format!("{what} must be at least 1"),
        });
    }
    Ok(())
}

/// The information-theoretic floor lambda >= 2f+1, specialised to complete
/// graphs where lambda = n - 1.
fn validate_clique_floor(compiler: &str, g: &Graph, f: usize) -> Result<(), ScenarioError> {
    let lambda = g.node_count().saturating_sub(1);
    if lambda < 2 * f + 1 {
        return Err(ScenarioError::InsufficientConnectivity {
            compiler: compiler.to_string(),
            needed: 2 * f + 1,
            found: lambda,
        });
    }
    Ok(())
}

/// What the tree-packing and rewind compilers ask of a graph before packing
/// `k` trees for `f` faults: addressable arcs, then the lambda floor alone on
/// a clique (its star packing is always feasible) or the full packing
/// feasibility elsewhere — the same split [`resilient_packing_on`] makes.
fn validate_packable(compiler: &str, g: &Graph, k: usize, f: usize) -> Result<(), ScenarioError> {
    validate_arc_ids(compiler, g)?;
    if is_complete(g) {
        validate_clique_floor(compiler, g, f)
    } else {
        validate_packing_feasible(compiler, g, k, 2, f)
    }
}

/// Build the packing the byzantine-resilient compilers share: the `(n, 2, 2)`
/// star packing on cliques; elsewhere the Appendix-C greedy packing (v1) or
/// its augmenting-path repaired successor (v2) per the selected
/// [`PackingVersion`].  A pure function of `(g, k, version)` — the tracer
/// only carries phase spans — which is what makes the packing cacheable
/// across seeds and adversaries.
fn resilient_packing_on(
    g: &Graph,
    tracer: &mut obs::Tracer,
    k: usize,
    version: PackingVersion,
) -> TreePacking {
    tracer.span_open(obs::Phase::Packing);
    let packing = if is_complete(g) {
        star_packing(g, 0)
    } else {
        match version {
            PackingVersion::V1Greedy => greedy_low_depth_packing(g, 0, k, 2),
            PackingVersion::V2Augmented => {
                augmented_low_depth_packing_traced(g, 0, k, 2, None, tracer)
            }
        }
    };
    tracer.span_close(obs::Phase::Packing);
    packing
}

/// The payload `compiler`'s own `prepare` stored in `artifacts`, or the typed
/// error for artifacts some other compiler prepared.
fn prepared<'a, T: std::any::Any + Send + Sync>(
    compiler: &CompilerDef,
    artifacts: &'a CompileArtifacts,
) -> Result<&'a T, ScenarioError> {
    artifacts
        .payload()
        .ok_or_else(|| ScenarioError::ArtifactMismatch {
            compiler: compiler.name(),
        })
}

/// A compiler's run stopped at a payload it cannot protect — a round count
/// whose secrecy key schedule `ℓ = r + t` outgrows GF(2^16) or a message
/// wider than a secrecy compiler's `words` parameter (`KeyScheduleError`),
/// or a message past the correction sketches' element layout
/// (`UnpackableMessage`): a parameter rejection like any other, only one the
/// payload has to be known, or start sending, before anything can see it.
fn payload_rejection(compiler: &CompilerDef, error: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::InvalidParameter {
        compiler: compiler.name(),
        reason: error.to_string(),
    }
}

/// The number of trees the majority argument needs against `f` mobile faults
/// at load `eta` (`k > 2 · t_RS · c_RS · f · η`).
fn default_tree_count(f: usize) -> usize {
    2 * interactive_coding::T_RS * interactive_coding::C_RS * f.max(1) * 2 + 1
}

/// Fold a [`ByzantineCompilerReport`] correction trace into the typed notes
/// channel (shared by the clique, tree-packing and expander compilers).
fn resilient_notes(report: &crate::resilient::ByzantineCompilerReport) -> CompilerNotes {
    let q = &report.packing_quality;
    CompilerNotes::Resilient {
        fully_corrected: report.fully_corrected,
        mismatches_before: report.per_round.iter().map(|r| r.mismatches_before).sum(),
        mismatches_after: report.per_round.iter().map(|r| r.mismatches_after).sum(),
        failed_trees: report.per_round.iter().map(|r| r.failed_trees).sum(),
        packing_trees: q.trees,
        packing_good_trees: q.good_trees,
        packing_max_load: q.max_edge_load,
        packing_load_floor: q.load_floor,
        packing_min_cut_usage: q.min_cut_usage,
    }
}

/// The node the congestion-sensitive compiler's global secret exchange is
/// rooted at.
const BROADCAST_SOURCE: NodeId = 0;

/// One compiler configuration, serializable and runnable: each variant names
/// one compiler together with its parameters, and the [`Compiler`] impl runs
/// it (see the module docs for the table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompilerDef {
    /// The no-defence baseline.
    Uncompiled,
    /// The asynchronous execution runtime ([`async_exec::AsyncExecutor`]):
    /// the uncompiled payload run under a virtual-time delivery schedule.
    Async {
        /// Delivery behaviour (latency, reorder, drops, partitions, crashes).
        schedule: ScheduleDef,
    },
    /// The network-less reference run.
    FaultFree,
    /// Theorem 1.6: the CONGESTED CLIQUE compiler (star packing over `K_n`).
    Clique {
        /// Mobile fault bound.
        f: usize,
        /// Compiler randomness seed.
        seed: u64,
    },
    /// Theorem 3.5: the general-graph compiler over a low-depth tree
    /// packing — the greedy construction (v1) or its augmenting-path
    /// repaired successor (v2, the default; see
    /// `netgraph::tree_packing::improve_packing`).
    TreePacking {
        /// Mobile fault bound.
        f: usize,
        /// Packed tree count; `None` uses the majority-argument default
        /// `k = 2·t_RS·c_RS·f·η + 1`.  On complete graphs the `(n, 2, 2)`
        /// star packing is used instead and the count has no effect.
        trees: Option<usize>,
        /// Compiler randomness seed.
        seed: u64,
        /// Packing construction (v1 greedy / v2 augmented) — the knob
        /// campaign grids use to A/B the two packings on identical cells.
        packing: PackingVersion,
    },
    /// Theorems 1.4 / 5.5: the FT-cycle-cover compiler for
    /// `(2f+1)`-edge-connected graphs.
    CycleCover {
        /// Mobile fault bound.
        f: usize,
    },
    /// Theorem 1.7: the expander compiler — the weak packing is built while
    /// the adversary is already attacking.
    Expander {
        /// Mobile fault bound.
        f: usize,
        /// Colour classes / candidate trees.
        k: usize,
        /// BFS propagation rounds (use `Θ(log n / φ)`).
        bfs_rounds: usize,
        /// Compiler randomness seed.
        seed: u64,
    },
    /// Theorem 4.1: the round-error-rate rewind compiler.  Rewinding
    /// re-simulates the payload from the committed prefix, so `execute`
    /// calls its payload factory once per global round.
    Rewind {
        /// Average per-round corruption bound.
        f: usize,
        /// Compiler randomness seed.
        seed: u64,
    },
    /// Theorem 1.2: the static→mobile secrecy compiler (one-time pads from
    /// Vandermonde bit extraction).
    StaticToMobile {
        /// Slack parameter (more key rounds, more tolerated mobility).
        t: usize,
        /// Maximum payload width in words.
        words: usize,
        /// Node-randomness seed.
        seed: u64,
    },
    /// Theorem 1.3: the congestion-sensitive secrecy compiler (dummy traffic
    /// on silent edges, tagged and padded real traffic elsewhere), its global
    /// secret exchange rooted at node 0.
    CongestionSensitive {
        /// Mobile eavesdropping bound.
        f: usize,
        /// Maximum payload width in words.
        words: usize,
        /// Node-randomness seed.
        seed: u64,
    },
}

impl CompilerDef {
    /// The stable lowercase label used by serialized specs (the spec's `id`,
    /// together with the per-variant parameters).
    pub fn label(&self) -> &'static str {
        match self {
            CompilerDef::Uncompiled => "uncompiled",
            CompilerDef::Async { .. } => "async",
            CompilerDef::FaultFree => "fault-free",
            CompilerDef::Clique { .. } => "clique",
            CompilerDef::TreePacking { .. } => "tree-packing",
            CompilerDef::CycleCover { .. } => "cycle-cover",
            CompilerDef::Expander { .. } => "expander",
            CompilerDef::Rewind { .. } => "rewind",
            CompilerDef::StaticToMobile { .. } => "static-to-mobile",
            CompilerDef::CongestionSensitive { .. } => "congestion-sensitive",
        }
    }

    /// The def as a boxed compiler, for drivers that take one
    /// (`matrix::run_cell`, `ScenarioBuilder::compiled_with_boxed`).
    pub fn build(&self) -> Box<dyn Compiler> {
        Box::new(self.clone())
    }
}

impl Compiler for CompilerDef {
    fn name(&self) -> String {
        match *self {
            CompilerDef::Uncompiled => Uncompiled.name(),
            CompilerDef::Async { ref schedule } => AsyncExecutor::new(schedule.clone()).name(),
            CompilerDef::FaultFree => FaultFree.name(),
            CompilerDef::Clique { f, .. } => format!("clique(f={f})"),
            CompilerDef::TreePacking {
                f, trees, packing, ..
            } => format!(
                "tree-packing(f={f},k={},{})",
                trees.unwrap_or_else(|| default_tree_count(f)),
                packing.label()
            ),
            CompilerDef::CycleCover { f } => format!("cycle-cover(f={f})"),
            CompilerDef::Expander { f, k, .. } => format!("expander(f={f},k={k})"),
            CompilerDef::Rewind { f, .. } => format!("rewind(f={f})"),
            CompilerDef::StaticToMobile { t, .. } => format!("static-to-mobile(t={t})"),
            CompilerDef::CongestionSensitive { f, .. } => format!("congestion-sensitive(f={f})"),
        }
    }

    fn kind(&self) -> CompilerKind {
        match self {
            CompilerDef::Uncompiled | CompilerDef::Async { .. } => CompilerKind::Baseline,
            CompilerDef::FaultFree => CompilerKind::Reference,
            CompilerDef::Clique { .. }
            | CompilerDef::TreePacking { .. }
            | CompilerDef::CycleCover { .. }
            | CompilerDef::Expander { .. } => CompilerKind::Resilient,
            CompilerDef::Rewind { .. } => CompilerKind::RateResilient,
            CompilerDef::StaticToMobile { .. } | CompilerDef::CongestionSensitive { .. } => {
                CompilerKind::Secure
            }
        }
    }

    fn prepare(
        &self,
        graph: &Graph,
        tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        match *self {
            CompilerDef::Uncompiled => Uncompiled.prepare(graph, tracer),
            CompilerDef::Async { ref schedule } => {
                AsyncExecutor::new(schedule.clone()).prepare(graph, tracer)
            }
            CompilerDef::FaultFree => FaultFree.prepare(graph, tracer),
            CompilerDef::Clique { f, seed } => {
                let name = self.name();
                validate_arc_ids(&name, graph)?;
                // `CliqueCompiler::new` asserts completeness.
                if !is_complete(graph) {
                    return Err(ScenarioError::UnsupportedGraph {
                        compiler: name,
                        reason: "the clique compiler requires the complete graph".into(),
                    });
                }
                // Note: `CliqueCompiler::max_tolerable_f` is the far stricter
                // *worst-case* majority envelope; runs beyond it can still
                // succeed against non-adversarial strategies, so it is
                // asserted by the Theorem 1.6 row of `tests/conformance.rs`
                // rather than enforced.
                validate_clique_floor(&name, graph, f)?;
                // The wrapped compiler, star packing and all, under a packing
                // span.
                tracer.span_open(obs::Phase::Packing);
                let compiler = CliqueCompiler::new(graph, f, seed);
                tracer.span_close(obs::Phase::Packing);
                Ok(CompileArtifacts::with_payload(graph, compiler))
            }
            CompilerDef::TreePacking {
                f,
                trees,
                seed,
                packing,
            } => {
                let name = self.name();
                let k = trees.unwrap_or_else(|| default_tree_count(f));
                validate_at_least_one(&name, "trees", k)?;
                validate_packable(&name, graph, k, f)?;
                // The packing (and therefore the whole wrapped compiler — its
                // seed is the def's own parameter) is a pure function of the
                // graph, and so is the correction context (schedule plan,
                // spanning flags, broadcast code, quality measurement)
                // prepared alongside it.
                let packing = resilient_packing_on(graph, tracer, k, packing);
                let compiler = MobileByzantineCompiler::new(graph, packing, f, seed);
                Ok(CompileArtifacts::with_payload(graph, compiler))
            }
            CompilerDef::CycleCover { f } => {
                let name = self.name();
                validate_connectivity_floor(&name, graph, f)?;
                // The FT cycle cover is deterministic in the graph; the
                // wrapped compiler carries no seed at all.  Past the floor
                // every edge has its `2f + 1` disjoint paths (Menger), so
                // `None` is the same shortfall.
                let compiler = CycleCoverCompiler::new(graph, f)
                    .ok_or_else(|| insufficient_connectivity(&name, graph, f))?;
                Ok(CompileArtifacts::with_payload(graph, compiler))
            }
            // Theorem 1.7's whole point is that the weak packing is *built
            // while the adversary attacks* — it depends on the seed and the
            // adversary, so past the checks graph-only artifacts are all that
            // is cacheable.
            CompilerDef::Expander { k, .. } => {
                let name = self.name();
                validate_at_least_one(&name, "k", k)?;
                validate_arc_ids(&name, graph)?;
                // Every colour class must stay above the spanning threshold:
                // average per-colour degree d/k well clear of ~ln n.
                if graph.min_degree() < 4 * k {
                    return Err(ScenarioError::UnsupportedGraph {
                        compiler: name,
                        reason: format!(
                            "min degree {} is too small for {k} colour classes",
                            graph.min_degree(),
                        ),
                    });
                }
                Ok(CompileArtifacts::graph_only(graph))
            }
            CompilerDef::Rewind { f, .. } => {
                let k = default_tree_count(f);
                validate_packable(&self.name(), graph, k, f)?;
                // Only the packing is seed-independent (the rewind schedule
                // itself reacts to the adversary), so the artifacts carry the
                // bare packing.
                let packing = resilient_packing_on(graph, tracer, k, PackingVersion::default());
                Ok(CompileArtifacts::with_payload(graph, packing))
            }
            // Key schedules are exchanged *over the network* per run (the
            // pads depend on node randomness the eavesdropper races against),
            // so past the check graph-only artifacts are all that is
            // cacheable.
            CompilerDef::StaticToMobile { words, .. } => {
                validate_at_least_one(&self.name(), "words_per_message", words)?;
                Ok(CompileArtifacts::graph_only(graph))
            }
            // Both the local and the global key exchanges run over the live
            // (eavesdropped) network; what is seed-independent is the tree
            // packing the global exchange shares the hash seed over.
            CompilerDef::CongestionSensitive { f, words, .. } => {
                let name = self.name();
                // Node 0 is the source; only the empty graph lacks it.
                if graph.node_count() == 0 {
                    return Err(ScenarioError::InvalidParameter {
                        compiler: name,
                        reason: format!(
                            "source {BROADCAST_SOURCE} is not a node of the 0-node graph"
                        ),
                    });
                }
                validate_at_least_one(&name, "words_per_message", words)?;
                // The secure broadcast reaches every node over spanning trees.
                if !is_connected(graph) {
                    return Err(ScenarioError::UnsupportedGraph {
                        compiler: name,
                        reason: "the global secret exchange needs a connected graph".to_string(),
                    });
                }
                let packing = broadcast_packing(graph, BROADCAST_SOURCE, f);
                Ok(CompileArtifacts::with_payload(graph, packing))
            }
        }
    }

    fn execute(
        &self,
        artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        // The graph was judged by the `prepare` behind `artifacts`; here only
        // the cheap role check guards direct trait callers.
        validate_role(self, net.role())?;
        match *self {
            CompilerDef::Uncompiled => Uncompiled.execute(artifacts, make, net),
            CompilerDef::Async { ref schedule } => {
                AsyncExecutor::new(schedule.clone()).execute(artifacts, make, net)
            }
            CompilerDef::FaultFree => FaultFree.execute(artifacts, make, net),
            CompilerDef::Clique { .. } => {
                let compiler: &CliqueCompiler = prepared(self, artifacts)?;
                let (out, report) = compiler
                    .run(&mut *make(), net)
                    .map_err(|e| payload_rejection(self, e))?;
                Ok((out, resilient_notes(&report)))
            }
            CompilerDef::TreePacking { .. } => {
                let compiler: &MobileByzantineCompiler = prepared(self, artifacts)?;
                let (out, report) = compiler
                    .run(&mut *make(), net)
                    .map_err(|e| payload_rejection(self, e))?;
                Ok((out, resilient_notes(&report)))
            }
            CompilerDef::CycleCover { .. } => {
                let compiler: &CycleCoverCompiler = prepared(self, artifacts)?;
                let (out, report) = compiler.run(&mut *make(), net);
                let notes = CompilerNotes::CycleCover {
                    paths_per_edge: report.paths_per_edge,
                    dilation: report.dilation,
                    congestion: report.congestion,
                    colors: report.colors,
                };
                Ok((out, notes))
            }
            CompilerDef::Expander {
                f,
                k,
                bfs_rounds,
                seed,
            } => {
                let (out, report) =
                    run_expander_compiled(&mut *make(), net, f, k, bfs_rounds, seed)
                        .map_err(|e| payload_rejection(self, e))?;
                let notes = CompilerNotes::Expander {
                    trees: report.packing.k,
                    good_trees: report.packing.good_trees,
                    packing_rounds: report.packing.rounds,
                    fully_corrected: report.compilation.fully_corrected,
                    mismatches_after: report
                        .compilation
                        .per_round
                        .iter()
                        .map(|r| r.mismatches_after)
                        .sum(),
                };
                Ok((out, notes))
            }
            CompilerDef::Rewind { f, seed } => {
                let packing: &TreePacking = prepared(self, artifacts)?;
                let compiler = RewindCompiler::new(packing.clone(), f, seed);
                let (out, report) = compiler
                    .run(make, net)
                    .map_err(|e| payload_rejection(self, e))?;
                if !report.completed {
                    return Err(ScenarioError::IncompleteRun {
                        compiler: self.name(),
                        detail: format!(
                            "committed only {} rounds after {} rewinds in {} global rounds",
                            report.committed_rounds, report.rewinds, report.global_rounds
                        ),
                    });
                }
                let notes = CompilerNotes::Rewind {
                    rewinds: report.rewinds,
                    committed_rounds: report.committed_rounds,
                    global_rounds: report.global_rounds,
                    completed: report.completed,
                };
                Ok((out, notes))
            }
            CompilerDef::StaticToMobile { t, words, seed } => {
                let compiler = StaticToMobileCompiler::new(t, words, seed);
                let (out, report) = compiler
                    .run(&mut *make(), net)
                    .map_err(|e| payload_rejection(self, e))?;
                let notes = CompilerNotes::Secure {
                    key_rounds: report.key_rounds,
                    simulation_rounds: report.simulation_rounds,
                };
                Ok((out, notes))
            }
            CompilerDef::CongestionSensitive { f, words, seed } => {
                let packing: &TreePacking = prepared(self, artifacts)?;
                let compiler = CongestionSensitiveCompiler::new(f, words, seed);
                let (out, report) = compiler
                    .run(&mut *make(), net, BROADCAST_SOURCE, packing)
                    .map_err(|e| payload_rejection(self, e))?;
                let notes = CompilerNotes::CongestionSensitive {
                    local_key_rounds: report.local_key_rounds,
                    global_key_rounds: report.global_key_rounds,
                    simulation_rounds: report.simulation_rounds,
                    congestion: report.congestion,
                };
                Ok((out, notes))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::{FloodBroadcast, LeaderElection};
    use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile};
    use congest_sim::scenario::Scenario;
    use netgraph::generators;

    /// The verdict alone: `prepare` under a disabled tracer, artifacts dropped.
    fn verdict(def: &CompilerDef, g: &Graph) -> Result<(), ScenarioError> {
        def.prepare(g, &mut obs::Tracer::disabled()).map(|_| ())
    }

    fn tree_packing(f: usize, seed: u64, packing: PackingVersion) -> CompilerDef {
        CompilerDef::TreePacking {
            f,
            trees: None,
            seed,
            packing,
        }
    }

    #[test]
    fn clique_adapter_rejects_non_cliques_and_eavesdroppers() {
        let def = CompilerDef::Clique { f: 1, seed: 7 };
        let cycle = generators::cycle(6);
        assert!(matches!(
            verdict(&def, &cycle),
            Err(ScenarioError::UnsupportedGraph { .. })
        ));
        let clique = generators::complete(8);
        assert!(matches!(
            validate_role(&def, AdversaryRole::Eavesdropper),
            Err(ScenarioError::RoleMismatch { .. })
        ));
        assert_eq!(validate_role(&def, AdversaryRole::Byzantine), Ok(()));
        assert_eq!(verdict(&def, &clique), Ok(()));
        // K3 is complete but lambda = 2 < 2f + 1.
        assert_eq!(
            verdict(&def, &generators::complete(3)),
            Err(ScenarioError::InsufficientConnectivity {
                compiler: def.name(),
                needed: 3,
                found: 2,
            })
        );
    }

    #[test]
    fn graphs_beyond_the_16_bit_arc_ids_are_rejected_by_every_sketching_adapter() {
        // `pack_element` has 16 bits for the arc id: K256 (65 280 arcs) is the
        // largest clique the correction can address, K257 (65 792) is not.
        let fits = generators::complete(256);
        let too_large = generators::complete(257);
        assert!(fits.arc_count() <= MAX_ARCS && too_large.arc_count() > MAX_ARCS);
        for def in [
            CompilerDef::Clique { f: 1, seed: 7 },
            tree_packing(1, 7, PackingVersion::V1Greedy),
            tree_packing(1, 7, PackingVersion::V2Augmented),
            CompilerDef::Expander {
                f: 1,
                k: 4,
                bfs_rounds: 6,
                seed: 7,
            },
            CompilerDef::Rewind { f: 1, seed: 7 },
        ] {
            let name = def.name();
            assert_eq!(verdict(&def, &fits), Ok(()));
            match verdict(&def, &too_large) {
                Err(ScenarioError::UnsupportedGraph { compiler, reason }) => {
                    assert_eq!(compiler, name);
                    assert!(
                        reason.contains("65792") && reason.contains("65536"),
                        "{reason}"
                    );
                }
                other => panic!("{name}: expected UnsupportedGraph, got {other:?}"),
            }
        }
    }

    #[test]
    fn parameter_floors_are_typed_errors_not_constructor_panics() {
        // `trees: 0` used to reach `greedy_low_depth_packing`'s `k > 0`
        // assert, `k: 0` the expander's `gen_range(0..0)`; zero-width
        // messages were already typed.
        let g = generators::circulant(18, 4);
        for def in [
            CompilerDef::TreePacking {
                f: 1,
                trees: Some(0),
                seed: 5,
                packing: PackingVersion::default(),
            },
            CompilerDef::Expander {
                f: 1,
                k: 0,
                bfs_rounds: 6,
                seed: 5,
            },
            CompilerDef::StaticToMobile {
                t: 4,
                words: 0,
                seed: 5,
            },
            CompilerDef::CongestionSensitive {
                f: 1,
                words: 0,
                seed: 5,
            },
        ] {
            for graph in [&g, &generators::complete(12)] {
                match verdict(&def, graph) {
                    Err(ScenarioError::InvalidParameter { compiler, .. }) => {
                        assert_eq!(compiler, def.name())
                    }
                    other => panic!("{}: got {other:?}", def.name()),
                }
            }
        }
        // The secret exchange's source must be a node of the graph.
        let def = CompilerDef::CongestionSensitive {
            f: 1,
            words: 2,
            seed: 5,
        };
        assert!(matches!(
            verdict(&def, &Graph::new(0)),
            Err(ScenarioError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn disconnected_graphs_are_rejected_before_any_packing_is_attempted() {
        // `greedy_low_depth_packing` asserts connectivity; the lambda floor
        // in front of it answers with lambda = 0 instead.
        let two_cycles: Vec<(NodeId, NodeId)> = (0..6)
            .flat_map(|i| [(i, (i + 1) % 6), (6 + i, 6 + (i + 1) % 6)])
            .collect();
        let g = Graph::from_edges(12, &two_cycles);
        for def in [
            tree_packing(1, 5, PackingVersion::V1Greedy),
            tree_packing(1, 5, PackingVersion::V2Augmented),
            CompilerDef::Rewind { f: 1, seed: 5 },
            CompilerDef::CycleCover { f: 1 },
        ] {
            assert_eq!(
                verdict(&def, &g),
                Err(ScenarioError::InsufficientConnectivity {
                    compiler: def.name(),
                    needed: 3,
                    found: 0,
                })
            );
        }
        // The congestion-sensitive compiler packs too (its secure broadcast),
        // but asks for a connected graph only.
        let def = CompilerDef::CongestionSensitive {
            f: 1,
            words: 2,
            seed: 5,
        };
        assert!(matches!(
            verdict(&def, &g),
            Err(ScenarioError::UnsupportedGraph { compiler, .. }) if compiler == def.name()
        ));
    }

    #[test]
    fn congestion_sensitive_prepare_holds_the_secure_broadcasts_packing() {
        let g = generators::circulant(18, 4);
        let def = CompilerDef::CongestionSensitive {
            f: 2,
            words: 2,
            seed: 5,
        };
        let artifacts = def.prepare(&g, &mut obs::Tracer::disabled()).unwrap();
        let packing: &TreePacking = artifacts.payload().expect("the prepared packing");
        assert_eq!(packing.trees, broadcast_packing(&g, 0, 2).trees);
        assert_eq!((packing.len(), packing.trees[0].root), (5, 0));
        // `execute` takes it from there and builds none of its own.
        let make = || Box::new(LeaderElection::new(g.clone())) as BoxedAlgorithm;
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(2, 3)),
            CorruptionBudget::Mobile { f: 2 },
            2,
        );
        assert!(matches!(
            def.execute(&CompileArtifacts::graph_only(&g), &make, &mut net),
            Err(ScenarioError::ArtifactMismatch { .. })
        ));
        assert_eq!(net.round(), 0, "nothing ran");
        assert!(def.execute(&artifacts, &make, &mut net).is_ok());
    }

    #[test]
    fn cycle_cover_adapter_reports_connectivity() {
        let def = CompilerDef::CycleCover { f: 1 };
        let err = verdict(&def, &generators::cycle(6)).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::InsufficientConnectivity {
                compiler: def.name(),
                needed: 3,
                found: 2,
            }
        );
        assert_eq!(verdict(&def, &generators::circulant(9, 2)), Ok(()));
    }

    #[test]
    fn threshold_validation_reports_the_exact_connectivity_found() {
        // `prepare` asks `λ ≥ 2f+1` of the graph's memoised cut; a pair that
        // fails it must carry the exact λ in its typed error.
        let defs = [
            CompilerDef::CycleCover { f: 1 },
            tree_packing(1, 5, PackingVersion::V1Greedy),
            tree_packing(1, 5, PackingVersion::V2Augmented),
        ];
        for (g, lambda) in [
            (generators::grid(4, 4), 2),
            (generators::ring_of_cliques(4, 5), 2),
            (generators::barbell(5, 2), 1),
        ] {
            for def in &defs {
                assert_eq!(
                    verdict(def, &g),
                    Err(ScenarioError::InsufficientConnectivity {
                        compiler: def.name(),
                        needed: 3,
                        found: lambda,
                    })
                );
            }
        }
    }

    #[test]
    fn direct_compile_checks_the_networks_real_role() {
        // Bypassing the builder must not bypass role validation: the network
        // knows its role and the compiler consults it.
        let g = generators::complete(8);
        let mut eaves = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(1, 2)),
            CorruptionBudget::Mobile { f: 1 },
            2,
        );
        let def = CompilerDef::Clique { f: 1, seed: 3 };
        let artifacts = def.prepare(&g, &mut obs::Tracer::disabled()).unwrap();
        let make = || Box::new(LeaderElection::new(g.clone())) as BoxedAlgorithm;
        let err = def.execute(&artifacts, &make, &mut eaves).unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::RoleMismatch {
                role: AdversaryRole::Eavesdropper,
                ..
            }
        ));
    }

    #[test]
    fn foreign_artifacts_are_a_typed_mismatch_not_a_silent_rebuild() {
        let g = generators::complete(8);
        let make = || Box::new(LeaderElection::new(g.clone())) as BoxedAlgorithm;
        let foreign = CompilerDef::Clique { f: 1, seed: 3 }
            .prepare(&g, &mut obs::Tracer::disabled())
            .unwrap();
        let def = tree_packing(1, 3, PackingVersion::default());
        let mut net = Network::fault_free(g.clone());
        assert_eq!(
            def.execute(&foreign, &make, &mut net).unwrap_err(),
            ScenarioError::ArtifactMismatch {
                compiler: def.name()
            }
        );
        assert_eq!(net.round(), 0, "nothing ran");
        // Graph-only artifacts (no payload at all) are a mismatch too.
        let bare = CompileArtifacts::graph_only(&g);
        assert!(matches!(
            CompilerDef::Rewind { f: 1, seed: 3 }.execute(&bare, &make, &mut net),
            Err(ScenarioError::ArtifactMismatch { .. })
        ));
    }

    #[test]
    fn rewind_adapter_runs_through_plain_execute() {
        let g = generators::complete(8);
        let def = CompilerDef::Rewind { f: 1, seed: 3 };
        let artifacts = def.prepare(&g, &mut obs::Tracer::disabled()).unwrap();
        let make = || Box::new(LeaderElection::new(g.clone())) as BoxedAlgorithm;
        let mut net = Network::fault_free(g.clone());
        let (out, notes) = def.execute(&artifacts, &make, &mut net).unwrap();
        assert_eq!(out, congest_sim::run_fault_free(&mut *make()));
        assert_eq!(notes.rewinds(), Some(0));
    }

    #[test]
    fn clique_scenario_end_to_end_through_the_adapter() {
        let g = generators::complete(12);
        let gg = g.clone();
        let report = Scenario::on(g.clone())
            .payload(move || FloodBroadcast::new(gg.clone(), 0, 4242))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(2, 13),
                CorruptionBudget::Mobile { f: 2 },
            )
            .seed(13)
            .compiled_with(CompilerDef::Clique { f: 2, seed: 7 })
            .run()
            .unwrap();
        assert_eq!(report.compiler, "clique(f=2)");
        assert_eq!(report.agrees_with_fault_free(), Some(true));
        assert!(report.network_rounds > report.payload_rounds);
    }

    #[test]
    fn compiler_defs_resolve_to_the_same_names_kinds_and_parameters() {
        // The names are what reports, trajectories and fingerprints carry.
        let defs = [
            (
                CompilerDef::Uncompiled,
                "uncompiled",
                CompilerKind::Baseline,
            ),
            (
                CompilerDef::FaultFree,
                "fault-free",
                CompilerKind::Reference,
            ),
            (
                CompilerDef::Async {
                    schedule: ScheduleDef::synchronous(),
                },
                "async(sync)",
                CompilerKind::Baseline,
            ),
            (
                CompilerDef::Clique { f: 2, seed: 7 },
                "clique(f=2)",
                CompilerKind::Resilient,
            ),
            (
                tree_packing(1, 5, PackingVersion::V2Augmented),
                "tree-packing(f=1,k=9,v2)",
                CompilerKind::Resilient,
            ),
            (
                CompilerDef::TreePacking {
                    f: 1,
                    trees: Some(9),
                    seed: 5,
                    packing: PackingVersion::V1Greedy,
                },
                "tree-packing(f=1,k=9,v1)",
                CompilerKind::Resilient,
            ),
            (
                tree_packing(2, 5, PackingVersion::V2Augmented),
                "tree-packing(f=2,k=17,v2)",
                CompilerKind::Resilient,
            ),
            (
                CompilerDef::CycleCover { f: 1 },
                "cycle-cover(f=1)",
                CompilerKind::Resilient,
            ),
            (
                CompilerDef::Expander {
                    f: 1,
                    k: 5,
                    bfs_rounds: 6,
                    seed: 13,
                },
                "expander(f=1,k=5)",
                CompilerKind::Resilient,
            ),
            (
                CompilerDef::Rewind { f: 1, seed: 3 },
                "rewind(f=1)",
                CompilerKind::RateResilient,
            ),
            (
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
                "static-to-mobile(t=4)",
                CompilerKind::Secure,
            ),
            (
                CompilerDef::CongestionSensitive {
                    f: 1,
                    words: 2,
                    seed: 17,
                },
                "congestion-sensitive(f=1)",
                CompilerKind::Secure,
            ),
        ];
        for (def, name, kind) in defs {
            assert_eq!((def.name(), def.kind()), (name.to_string(), kind));
            let built = def.build();
            assert_eq!((built.name(), built.kind()), (name.to_string(), kind));
        }
    }

    #[test]
    fn secure_adapter_scenario_records_the_view() {
        let g = generators::grid(3, 3);
        let gg = g.clone();
        let report = Scenario::on(g.clone())
            .payload(move || FloodBroadcast::new(gg.clone(), 0, 321))
            .adversary(
                AdversaryRole::Eavesdropper,
                RandomMobile::new(2, 7),
                CorruptionBudget::Mobile { f: 2 },
            )
            .seed(7)
            .compiled_with(CompilerDef::StaticToMobile {
                t: 4,
                words: 2,
                seed: 99,
            })
            .run()
            .unwrap();
        assert_eq!(report.agrees_with_fault_free(), Some(true));
        assert!(!report.view.is_empty());
        assert!(!report.view_contains_any(&[321]));
    }
}
