//! Thin [`Compiler`] adapters: the paper's seven compilers behind the unified
//! `scenario` execution API.
//!
//! Each adapter is a cheap, `Clone` parameter holder.  Its `prepare` opens
//! with the theorem's preconditions on the graph and on the adapter's own
//! parameters — the only place they are stated — so the wrapped
//! constructors' panics and `Option` returns become typed
//! [`ScenarioError`]s; then everything derived from the graph alone (star
//! packings, greedy tree packings, cycle covers) is built there, and
//! everything seed- or adversary-dependent (key pools, under-attack
//! packings) inside `execute` from `net.graph()`.  That makes one adapter
//! value, and one `prepare` outcome per graph, reusable across a whole
//! campaign grid:
//!
//! | Adapter | Wraps | Paper result |
//! |---|---|---|
//! | [`CliqueAdapter`] | `CliqueCompiler` | Theorem 1.6 |
//! | [`TreePackingAdapter`] | `MobileByzantineCompiler` | Theorem 3.5 |
//! | [`CycleCoverAdapter`] | `CycleCoverCompiler` | Theorems 1.4 / 5.5 |
//! | [`ExpanderAdapter`] | `run_expander_compiled` | Theorem 1.7 |
//! | [`RewindAdapter`] | `RewindCompiler` | Theorem 4.1 |
//! | [`StaticToMobileAdapter`] | `StaticToMobileCompiler` | Theorem 1.2 |
//! | [`CongestionSensitiveAdapter`] | `CongestionSensitiveCompiler` | Theorem 1.3 |

use async_exec::ScheduleDef;

use crate::rate::RewindCompiler;
use crate::resilient::{
    rs_error_capacity, run_expander_compiled, CliqueCompiler, CorrectionVariant,
    CycleCoverCompiler, MobileByzantineCompiler, MAX_ARCS,
};
use crate::secure::{broadcast_packing, CongestionSensitiveCompiler, StaticToMobileCompiler};
use congest_sim::network::Network;
use congest_sim::scenario::{
    validate_role, BoxedAlgorithm, CompileArtifacts, Compiler, CompilerKind, CompilerNotes,
    ScenarioError,
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

/// Shared sizing for greedy packings.  The check certifies exactly what the
/// v2 packing delivers, so passing it *predicts* correction strength:
///
/// * edge connectivity `λ ≥ 2f + 1` (the information-theoretic floor),
/// * `k (n-1) <= 2 eta m` edge capacity (enough room for the trees at all),
/// * the graph's [`load_floor`] — the best max-edge-load any `k`-tree packing
///   can achieve — stays within the correction code's [`rs_error_capacity`],
///   since a heaviest-edge mobile adversary fails every tree scheduled over
///   one edge at once.
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

/// What the tree-packing and rewind adapters ask of a graph before packing
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

/// Build the packing the byzantine-resilient adapters share: the `(n, 2, 2)`
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
    compiler: &impl Compiler,
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
fn payload_rejection(compiler: &impl Compiler, error: impl std::fmt::Display) -> ScenarioError {
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
/// channel (shared by the clique, tree-packing and expander adapters).
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

/// Theorem 1.6: the CONGESTED CLIQUE compiler (star packing over `K_n`).
#[derive(Debug, Clone, Copy)]
pub struct CliqueAdapter {
    /// The mobile fault bound to withstand.
    pub f: usize,
    /// Compiler randomness seed.
    pub seed: u64,
    /// Correction procedure.
    pub variant: CorrectionVariant,
}

impl CliqueAdapter {
    /// Adapter for an `f`-mobile byzantine adversary.
    pub fn new(f: usize, seed: u64) -> Self {
        CliqueAdapter {
            f,
            seed,
            variant: CorrectionVariant::SparseMajority,
        }
    }

    /// Select the correction variant (default: sparse majority).
    pub fn with_variant(mut self, variant: CorrectionVariant) -> Self {
        self.variant = variant;
        self
    }
}

impl Compiler for CliqueAdapter {
    fn name(&self) -> String {
        format!("clique(f={})", self.f)
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::Resilient
    }
    fn prepare(
        &self,
        graph: &Graph,
        tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        validate_arc_ids(&self.name(), graph)?;
        // `CliqueCompiler::new` asserts completeness.
        if !is_complete(graph) {
            return Err(ScenarioError::UnsupportedGraph {
                compiler: self.name(),
                reason: "the clique compiler requires the complete graph".into(),
            });
        }
        // Note: `CliqueCompiler::max_tolerable_f` is the far stricter
        // *worst-case* majority envelope; runs beyond it can still succeed
        // against non-adversarial strategies, so it is reported in
        // experiments rather than enforced.
        validate_clique_floor(&self.name(), graph, self.f)?;
        // The wrapped compiler, star packing and all, under a packing span.
        tracer.span_open(obs::Phase::Packing);
        let compiler = CliqueCompiler::new(graph, self.f, self.seed).with_variant(self.variant);
        tracer.span_close(obs::Phase::Packing);
        Ok(CompileArtifacts::with_payload(graph, compiler))
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
        let compiler: &CliqueCompiler = prepared(self, artifacts)?;
        let (out, report) = compiler
            .run(&mut *make(), net)
            .map_err(|e| payload_rejection(self, e))?;
        Ok((out, resilient_notes(&report)))
    }
}

/// Theorem 3.5: the general-graph compiler over a low-depth tree packing —
/// the greedy construction (v1) or its augmenting-path repaired successor
/// (v2, the default; see `netgraph::tree_packing::improve_packing`).
#[derive(Debug, Clone, Copy)]
pub struct TreePackingAdapter {
    /// The mobile fault bound to withstand.
    pub f: usize,
    /// Number of trees to pack (default: the majority-argument minimum).
    pub k: usize,
    /// Compiler randomness seed.
    pub seed: u64,
    /// Correction procedure.
    pub variant: CorrectionVariant,
    /// Which packing construction to use (default: v2).
    pub packing: PackingVersion,
}

impl TreePackingAdapter {
    /// Adapter for an `f`-mobile byzantine adversary with the default tree
    /// count `k = 2·t_RS·c_RS·f·η + 1` and the v2 augmented packing.
    pub fn new(f: usize, seed: u64) -> Self {
        TreePackingAdapter {
            f,
            k: default_tree_count(f),
            seed,
            variant: CorrectionVariant::SparseMajority,
            packing: PackingVersion::default(),
        }
    }

    /// Override the number of packed trees.  On complete graphs the
    /// `(n, 2, 2)` star packing is used instead and `k` has no effect.
    pub fn with_trees(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Select the correction variant (default: sparse majority).
    pub fn with_variant(mut self, variant: CorrectionVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Select the packing construction (default: v2 augmented) — the knob
    /// campaign grids use to A/B the two packings on identical cells.
    pub fn with_packing(mut self, packing: PackingVersion) -> Self {
        self.packing = packing;
        self
    }
}

impl Compiler for TreePackingAdapter {
    fn name(&self) -> String {
        format!(
            "tree-packing(f={},k={},{})",
            self.f,
            self.k,
            self.packing.label()
        )
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::Resilient
    }
    fn prepare(
        &self,
        graph: &Graph,
        tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        validate_at_least_one(&self.name(), "trees", self.k)?;
        validate_packable(&self.name(), graph, self.k, self.f)?;
        // The packing (and therefore the whole wrapped compiler — its seed is
        // the adapter's own parameter) is a pure function of the graph, and so
        // is the correction context (schedule plan, spanning flags, broadcast
        // code, quality measurement) prepared alongside it.
        let packing = resilient_packing_on(graph, tracer, self.k, self.packing);
        let compiler = MobileByzantineCompiler::new(graph, packing, self.f, self.seed)
            .with_variant(self.variant);
        Ok(CompileArtifacts::with_payload(graph, compiler))
    }
    fn execute(
        &self,
        artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        validate_role(self, net.role())?;
        let compiler: &MobileByzantineCompiler = prepared(self, artifacts)?;
        let (out, report) = compiler
            .run(&mut *make(), net)
            .map_err(|e| payload_rejection(self, e))?;
        Ok((out, resilient_notes(&report)))
    }
}

/// Theorems 1.4 / 5.5: the FT-cycle-cover compiler for `(2f+1)`-edge-connected
/// graphs.
#[derive(Debug, Clone, Copy)]
pub struct CycleCoverAdapter {
    /// The mobile fault bound to withstand.
    pub f: usize,
}

impl CycleCoverAdapter {
    /// Adapter for an `f`-mobile byzantine adversary.
    pub fn new(f: usize) -> Self {
        CycleCoverAdapter { f }
    }
}

impl Compiler for CycleCoverAdapter {
    fn name(&self) -> String {
        format!("cycle-cover(f={})", self.f)
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::Resilient
    }
    fn prepare(
        &self,
        graph: &Graph,
        tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        let _ = tracer;
        validate_connectivity_floor(&self.name(), graph, self.f)?;
        // The FT cycle cover is deterministic in the graph; the wrapped
        // compiler carries no seed at all.  Past the floor every edge has its
        // `2f + 1` disjoint paths (Menger), so `None` is the same shortfall.
        let compiler = CycleCoverCompiler::new(graph, self.f)
            .ok_or_else(|| insufficient_connectivity(&self.name(), graph, self.f))?;
        Ok(CompileArtifacts::with_payload(graph, compiler))
    }
    fn execute(
        &self,
        artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        validate_role(self, net.role())?;
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
}

/// Theorem 1.7: the expander compiler — the weak packing is built while the
/// adversary is already attacking.
#[derive(Debug, Clone, Copy)]
pub struct ExpanderAdapter {
    /// The mobile fault bound to withstand.
    pub f: usize,
    /// Number of edge colours / candidate trees.
    pub k: usize,
    /// BFS propagation rounds (use `Θ(log n / φ)`).
    pub bfs_rounds: usize,
    /// Compiler randomness seed.
    pub seed: u64,
}

impl ExpanderAdapter {
    /// Adapter for an `f`-mobile byzantine adversary, with `k` colour classes
    /// and `bfs_rounds` propagation rounds.
    pub fn new(f: usize, k: usize, bfs_rounds: usize, seed: u64) -> Self {
        ExpanderAdapter {
            f,
            k,
            bfs_rounds,
            seed,
        }
    }
}

impl Compiler for ExpanderAdapter {
    fn name(&self) -> String {
        format!("expander(f={},k={})", self.f, self.k)
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::Resilient
    }
    // Theorem 1.7's whole point is that the weak packing is *built while the
    // adversary attacks* — it depends on the seed and the adversary, so past
    // the checks graph-only artifacts are all that is cacheable.
    fn prepare(
        &self,
        graph: &Graph,
        _tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        validate_at_least_one(&self.name(), "k", self.k)?;
        validate_arc_ids(&self.name(), graph)?;
        // Every colour class must stay above the spanning threshold: average
        // per-colour degree d/k well clear of ~ln n.
        if graph.min_degree() < 4 * self.k {
            return Err(ScenarioError::UnsupportedGraph {
                compiler: self.name(),
                reason: format!(
                    "min degree {} is too small for {} colour classes",
                    graph.min_degree(),
                    self.k
                ),
            });
        }
        Ok(CompileArtifacts::graph_only(graph))
    }
    fn execute(
        &self,
        _artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        validate_role(self, net.role())?;
        let (out, report) = run_expander_compiled(
            &mut *make(),
            net,
            self.f,
            self.k,
            self.bfs_rounds,
            self.seed,
        )
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
}

/// Theorem 4.1: the round-error-rate rewind compiler.  Rewinding re-simulates
/// the payload from the committed prefix, so `execute` calls its payload
/// factory once per global round.
#[derive(Debug, Clone, Copy)]
pub struct RewindAdapter {
    /// The average per-round corruption bound to withstand.
    pub f: usize,
    /// Compiler randomness seed.
    pub seed: u64,
}

impl RewindAdapter {
    /// Adapter for an `f`-average-rate byzantine adversary.
    pub fn new(f: usize, seed: u64) -> Self {
        RewindAdapter { f, seed }
    }
}

impl Compiler for RewindAdapter {
    fn name(&self) -> String {
        format!("rewind(f={})", self.f)
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::RateResilient
    }
    fn prepare(
        &self,
        graph: &Graph,
        tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        let k = default_tree_count(self.f);
        validate_packable(&self.name(), graph, k, self.f)?;
        // Only the packing is seed-independent (the rewind schedule itself
        // reacts to the adversary), so the artifacts carry the bare packing.
        let packing = resilient_packing_on(graph, tracer, k, PackingVersion::default());
        Ok(CompileArtifacts::with_payload(graph, packing))
    }
    fn execute(
        &self,
        artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        validate_role(self, net.role())?;
        let packing: &TreePacking = prepared(self, artifacts)?;
        let compiler = RewindCompiler::new(packing.clone(), self.f, self.seed);
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
}

/// Theorem 1.2: the static→mobile secrecy compiler (one-time pads from
/// Vandermonde bit extraction).
#[derive(Debug, Clone, Copy)]
pub struct StaticToMobileAdapter {
    /// Slack parameter `t` (more key rounds, more tolerated mobility).
    pub t: usize,
    /// Maximum payload width in words.
    pub words_per_message: usize,
    /// Node-randomness seed.
    pub seed: u64,
}

impl StaticToMobileAdapter {
    /// Adapter with slack `t` protecting messages of up to
    /// `words_per_message` words.
    pub fn new(t: usize, words_per_message: usize, seed: u64) -> Self {
        StaticToMobileAdapter {
            t,
            words_per_message,
            seed,
        }
    }
}

impl Compiler for StaticToMobileAdapter {
    fn name(&self) -> String {
        format!("static-to-mobile(t={})", self.t)
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::Secure
    }
    // Key schedules are exchanged *over the network* per run (the pads depend
    // on node randomness the eavesdropper races against), so past the check
    // graph-only artifacts are all that is cacheable.
    fn prepare(
        &self,
        graph: &Graph,
        _tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        validate_at_least_one(&self.name(), "words_per_message", self.words_per_message)?;
        Ok(CompileArtifacts::graph_only(graph))
    }
    fn execute(
        &self,
        _artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        validate_role(self, net.role())?;
        let compiler = StaticToMobileCompiler::new(self.t, self.words_per_message, self.seed);
        let (out, report) = compiler
            .run(&mut *make(), net)
            .map_err(|e| payload_rejection(self, e))?;
        let notes = CompilerNotes::Secure {
            key_rounds: report.key_rounds,
            simulation_rounds: report.simulation_rounds,
        };
        Ok((out, notes))
    }
}

/// Theorem 1.3: the congestion-sensitive secrecy compiler (dummy traffic on
/// silent edges, tagged and padded real traffic elsewhere).
#[derive(Debug, Clone, Copy)]
pub struct CongestionSensitiveAdapter {
    /// The mobile eavesdropping bound to defend against.
    pub f: usize,
    /// Maximum payload width in words.
    pub words_per_message: usize,
    /// Node-randomness seed.
    pub seed: u64,
    /// Source node for the global secret exchange.
    pub source: NodeId,
}

impl CongestionSensitiveAdapter {
    /// Adapter for an `f`-mobile eavesdropper, global exchange rooted at
    /// node 0.
    pub fn new(f: usize, words_per_message: usize, seed: u64) -> Self {
        CongestionSensitiveAdapter {
            f,
            words_per_message,
            seed,
            source: 0,
        }
    }

    /// Root the global secret exchange elsewhere.
    pub fn with_source(mut self, source: NodeId) -> Self {
        self.source = source;
        self
    }
}

impl Compiler for CongestionSensitiveAdapter {
    fn name(&self) -> String {
        format!("congestion-sensitive(f={})", self.f)
    }
    fn kind(&self) -> CompilerKind {
        CompilerKind::Secure
    }
    // Both the local and the global key exchanges run over the live
    // (eavesdropped) network; what is seed-independent is the tree packing
    // the global exchange shares the hash seed over.
    fn prepare(
        &self,
        graph: &Graph,
        _tracer: &mut obs::Tracer,
    ) -> Result<CompileArtifacts, ScenarioError> {
        if self.source >= graph.node_count() {
            return Err(ScenarioError::InvalidParameter {
                compiler: self.name(),
                reason: format!(
                    "source {} is not a node of the {}-node graph",
                    self.source,
                    graph.node_count()
                ),
            });
        }
        validate_at_least_one(&self.name(), "words_per_message", self.words_per_message)?;
        // The secure broadcast reaches every node over spanning trees.
        if !is_connected(graph) {
            return Err(ScenarioError::UnsupportedGraph {
                compiler: self.name(),
                reason: "the global secret exchange needs a connected graph".to_string(),
            });
        }
        let packing = broadcast_packing(graph, self.source, self.f);
        Ok(CompileArtifacts::with_payload(graph, packing))
    }
    fn execute(
        &self,
        artifacts: &CompileArtifacts,
        make: &dyn Fn() -> BoxedAlgorithm,
        net: &mut Network,
    ) -> Result<(Vec<Output>, CompilerNotes), ScenarioError> {
        validate_role(self, net.role())?;
        let packing: &TreePacking = prepared(self, artifacts)?;
        let compiler = CongestionSensitiveCompiler::new(self.f, self.words_per_message, self.seed);
        let (out, report) = compiler
            .run(&mut *make(), net, self.source, packing)
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

/// A serializable description of one compiler configuration — the adapter
/// registry as *data*.  Each variant names one adapter (or the built-in
/// baseline/reference compilers) together with its parameters; resolve it
/// with [`CompilerDef::build`] (one boxed instance per cell).
///
/// | Def | Adapter | Kind |
/// |---|---|---|
/// | `Uncompiled` | [`congest_sim::scenario::Uncompiled`] | `Baseline` |
/// | `FaultFree` | [`congest_sim::scenario::FaultFree`] | `Reference` |
/// | `Clique` | [`CliqueAdapter`] | `Resilient` |
/// | `TreePacking` | [`TreePackingAdapter`] | `Resilient` |
/// | `CycleCover` | [`CycleCoverAdapter`] | `Resilient` |
/// | `Expander` | [`ExpanderAdapter`] | `Resilient` |
/// | `Rewind` | [`RewindAdapter`] | `RateResilient` |
/// | `StaticToMobile` | [`StaticToMobileAdapter`] | `Secure` |
/// | `CongestionSensitive` | [`CongestionSensitiveAdapter`] | `Secure` |
/// | `Async` | [`async_exec::AsyncExecutor`] | `Baseline` |
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
    /// Theorem 1.6 ([`CliqueAdapter`]).
    Clique {
        /// Mobile fault bound.
        f: usize,
        /// Compiler randomness seed.
        seed: u64,
    },
    /// Theorem 3.5 ([`TreePackingAdapter`]).
    TreePacking {
        /// Mobile fault bound.
        f: usize,
        /// Packed tree count; `None` uses the majority-argument default.
        trees: Option<usize>,
        /// Compiler randomness seed.
        seed: u64,
        /// Packing construction (v1 greedy / v2 augmented).
        packing: PackingVersion,
    },
    /// Theorems 1.4 / 5.5 ([`CycleCoverAdapter`]).
    CycleCover {
        /// Mobile fault bound.
        f: usize,
    },
    /// Theorem 1.7 ([`ExpanderAdapter`]).
    Expander {
        /// Mobile fault bound.
        f: usize,
        /// Colour classes / candidate trees.
        k: usize,
        /// BFS propagation rounds.
        bfs_rounds: usize,
        /// Compiler randomness seed.
        seed: u64,
    },
    /// Theorem 4.1 ([`RewindAdapter`]).
    Rewind {
        /// Average per-round corruption bound.
        f: usize,
        /// Compiler randomness seed.
        seed: u64,
    },
    /// Theorem 1.2 ([`StaticToMobileAdapter`]).
    StaticToMobile {
        /// Slack parameter (more key rounds, more tolerated mobility).
        t: usize,
        /// Maximum payload width in words.
        words: usize,
        /// Node-randomness seed.
        seed: u64,
    },
    /// Theorem 1.3 ([`CongestionSensitiveAdapter`]).
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
    /// The stable lowercase label used by serialized specs (the registry
    /// key, together with the per-variant parameters).
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

    /// What the described compiler defends against.
    pub fn kind(&self) -> CompilerKind {
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

    /// Resolve the def into one boxed compiler instance (delegates to
    /// [`crate::registry::instantiate`], the single def → adapter path).
    pub fn build(&self) -> Box<dyn Compiler> {
        crate::registry::instantiate(self)
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
    fn verdict(adapter: &dyn Compiler, g: &Graph) -> Result<(), ScenarioError> {
        adapter.prepare(g, &mut obs::Tracer::disabled()).map(|_| ())
    }

    #[test]
    fn clique_adapter_rejects_non_cliques_and_eavesdroppers() {
        let adapter = CliqueAdapter::new(1, 7);
        let cycle = generators::cycle(6);
        assert!(matches!(
            verdict(&adapter, &cycle),
            Err(ScenarioError::UnsupportedGraph { .. })
        ));
        let clique = generators::complete(8);
        assert!(matches!(
            validate_role(&adapter, AdversaryRole::Eavesdropper),
            Err(ScenarioError::RoleMismatch { .. })
        ));
        assert_eq!(validate_role(&adapter, AdversaryRole::Byzantine), Ok(()));
        assert_eq!(verdict(&adapter, &clique), Ok(()));
        // K3 is complete but lambda = 2 < 2f + 1.
        assert_eq!(
            verdict(&adapter, &generators::complete(3)),
            Err(ScenarioError::InsufficientConnectivity {
                compiler: adapter.name(),
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
        let adapters: [Box<dyn Compiler>; 5] = [
            Box::new(CliqueAdapter::new(1, 7)),
            Box::new(TreePackingAdapter::new(1, 7).with_packing(PackingVersion::V1Greedy)),
            Box::new(TreePackingAdapter::new(1, 7)),
            Box::new(ExpanderAdapter::new(1, 4, 6, 7)),
            Box::new(RewindAdapter::new(1, 7)),
        ];
        for adapter in adapters {
            let name = adapter.name();
            assert_eq!(verdict(&*adapter, &fits), Ok(()));
            match verdict(&*adapter, &too_large) {
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
        // messages and an off-graph source were already typed.
        let g = generators::circulant(18, 4);
        let adapters: [Box<dyn Compiler>; 5] = [
            Box::new(TreePackingAdapter::new(1, 5).with_trees(0)),
            Box::new(ExpanderAdapter::new(1, 0, 6, 5)),
            Box::new(StaticToMobileAdapter::new(4, 0, 5)),
            Box::new(CongestionSensitiveAdapter::new(1, 0, 5)),
            Box::new(CongestionSensitiveAdapter::new(1, 2, 5).with_source(18)),
        ];
        for adapter in adapters {
            for graph in [&g, &generators::complete(12)] {
                match verdict(&*adapter, graph) {
                    Err(ScenarioError::InvalidParameter { compiler, .. }) => {
                        assert_eq!(compiler, adapter.name())
                    }
                    other => panic!("{}: got {other:?}", adapter.name()),
                }
            }
        }
    }

    #[test]
    fn disconnected_graphs_are_rejected_before_any_packing_is_attempted() {
        // `greedy_low_depth_packing` asserts connectivity; the lambda floor
        // in front of it answers with lambda = 0 instead.
        let two_cycles: Vec<(NodeId, NodeId)> = (0..6)
            .flat_map(|i| [(i, (i + 1) % 6), (6 + i, 6 + (i + 1) % 6)])
            .collect();
        let g = Graph::from_edges(12, &two_cycles);
        let adapters: [Box<dyn Compiler>; 4] = [
            Box::new(TreePackingAdapter::new(1, 5).with_packing(PackingVersion::V1Greedy)),
            Box::new(TreePackingAdapter::new(1, 5)),
            Box::new(RewindAdapter::new(1, 5)),
            Box::new(CycleCoverAdapter::new(1)),
        ];
        for adapter in adapters {
            assert_eq!(
                verdict(&*adapter, &g),
                Err(ScenarioError::InsufficientConnectivity {
                    compiler: adapter.name(),
                    needed: 3,
                    found: 0,
                })
            );
        }
        // The congestion-sensitive compiler packs too (its secure broadcast),
        // but asks for a connected graph only.
        let adapter = CongestionSensitiveAdapter::new(1, 2, 5);
        assert!(matches!(
            verdict(&adapter, &g),
            Err(ScenarioError::UnsupportedGraph { compiler, .. }) if compiler == adapter.name()
        ));
    }

    #[test]
    fn congestion_sensitive_prepare_holds_the_secure_broadcasts_packing() {
        let g = generators::circulant(18, 4);
        let adapter = CongestionSensitiveAdapter::new(2, 2, 5).with_source(7);
        let artifacts = adapter.prepare(&g, &mut obs::Tracer::disabled()).unwrap();
        let packing: &TreePacking = artifacts.payload().expect("the prepared packing");
        assert_eq!(packing.trees, broadcast_packing(&g, 7, 2).trees);
        assert_eq!((packing.len(), packing.trees[0].root), (5, 7));
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
            adapter.execute(&CompileArtifacts::graph_only(&g), &make, &mut net),
            Err(ScenarioError::ArtifactMismatch { .. })
        ));
        assert_eq!(net.round(), 0, "nothing ran");
        assert!(adapter.execute(&artifacts, &make, &mut net).is_ok());
    }

    #[test]
    fn cycle_cover_adapter_reports_connectivity() {
        let adapter = CycleCoverAdapter::new(1);
        let err = verdict(&adapter, &generators::cycle(6)).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::InsufficientConnectivity {
                compiler: adapter.name(),
                needed: 3,
                found: 2,
            }
        );
        assert_eq!(verdict(&adapter, &generators::circulant(9, 2)), Ok(()));
    }

    #[test]
    fn threshold_validation_reports_the_exact_connectivity_found() {
        // `prepare` asks `λ ≥ 2f+1` of the graph's memoised cut; a pair that
        // fails it must carry the exact λ in its typed error.
        let adapters: [Box<dyn Compiler>; 3] = [
            Box::new(CycleCoverAdapter::new(1)),
            Box::new(TreePackingAdapter::new(1, 5).with_packing(PackingVersion::V1Greedy)),
            Box::new(TreePackingAdapter::new(1, 5).with_packing(PackingVersion::V2Augmented)),
        ];
        for (g, lambda) in [
            (generators::grid(4, 4), 2),
            (generators::ring_of_cliques(4, 5), 2),
            (generators::barbell(5, 2), 1),
        ] {
            for adapter in &adapters {
                assert_eq!(
                    verdict(&**adapter, &g),
                    Err(ScenarioError::InsufficientConnectivity {
                        compiler: adapter.name(),
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
        // knows its role and the adapter consults it.
        let g = generators::complete(8);
        let mut eaves = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(RandomMobile::new(1, 2)),
            CorruptionBudget::Mobile { f: 1 },
            2,
        );
        let adapter = CliqueAdapter::new(1, 3);
        let artifacts = adapter.prepare(&g, &mut obs::Tracer::disabled()).unwrap();
        let make = || Box::new(LeaderElection::new(g.clone())) as BoxedAlgorithm;
        let err = adapter.execute(&artifacts, &make, &mut eaves).unwrap_err();
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
        let foreign = CliqueAdapter::new(1, 3)
            .prepare(&g, &mut obs::Tracer::disabled())
            .unwrap();
        let adapter = TreePackingAdapter::new(1, 3);
        let mut net = Network::fault_free(g.clone());
        assert_eq!(
            adapter.execute(&foreign, &make, &mut net).unwrap_err(),
            ScenarioError::ArtifactMismatch {
                compiler: adapter.name()
            }
        );
        assert_eq!(net.round(), 0, "nothing ran");
        // Graph-only artifacts (no payload at all) are a mismatch too.
        let bare = CompileArtifacts::graph_only(&g);
        assert!(matches!(
            RewindAdapter::new(1, 3).execute(&bare, &make, &mut net),
            Err(ScenarioError::ArtifactMismatch { .. })
        ));
    }

    #[test]
    fn rewind_adapter_runs_through_plain_execute() {
        let g = generators::complete(8);
        let adapter = RewindAdapter::new(1, 3);
        let artifacts = adapter.prepare(&g, &mut obs::Tracer::disabled()).unwrap();
        let make = || Box::new(LeaderElection::new(g.clone())) as BoxedAlgorithm;
        let mut net = Network::fault_free(g.clone());
        let (out, notes) = adapter.execute(&artifacts, &make, &mut net).unwrap();
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
            .compiled_with(CliqueAdapter::new(2, 7))
            .run()
            .unwrap();
        assert_eq!(report.agrees_with_fault_free(), Some(true));
        assert!(report.network_rounds > report.payload_rounds);
    }

    #[test]
    fn clique_adapter_honours_the_correction_variant() {
        let g = generators::complete(20);
        let gg = g.clone();
        let report = Scenario::on(g.clone())
            .payload(move || FloodBroadcast::new(gg.clone(), 0, 99))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(1, 9),
                CorruptionBudget::Mobile { f: 1 },
            )
            .seed(9)
            .compiled_with(CliqueAdapter::new(1, 3).with_variant(CorrectionVariant::L0Threshold))
            .run()
            .unwrap();
        assert_eq!(report.agrees_with_fault_free(), Some(true));
        // The l0-threshold variant iterates sampling phases, so its round
        // footprint differs from the single-shot sparse-majority default —
        // proof the variant actually reached the compiler.
        let gg = g.clone();
        let default_report = Scenario::on(g)
            .payload(move || FloodBroadcast::new(gg.clone(), 0, 99))
            .adversary(
                AdversaryRole::Byzantine,
                RandomMobile::new(1, 9),
                CorruptionBudget::Mobile { f: 1 },
            )
            .seed(9)
            .compiled_with(CliqueAdapter::new(1, 3))
            .run()
            .unwrap();
        assert_ne!(report.network_rounds, default_report.network_rounds);
    }

    #[test]
    fn compiler_defs_resolve_to_the_same_names_kinds_and_parameters() {
        let defs: Vec<(CompilerDef, Box<dyn Compiler>)> = vec![
            (
                CompilerDef::Uncompiled,
                Box::new(congest_sim::scenario::Uncompiled),
            ),
            (
                CompilerDef::FaultFree,
                Box::new(congest_sim::scenario::FaultFree),
            ),
            (
                CompilerDef::Clique { f: 2, seed: 7 },
                Box::new(CliqueAdapter::new(2, 7)),
            ),
            (
                CompilerDef::TreePacking {
                    f: 1,
                    trees: None,
                    seed: 5,
                    packing: PackingVersion::V2Augmented,
                },
                Box::new(TreePackingAdapter::new(1, 5)),
            ),
            (
                CompilerDef::TreePacking {
                    f: 1,
                    trees: Some(9),
                    seed: 5,
                    packing: PackingVersion::V1Greedy,
                },
                Box::new(
                    TreePackingAdapter::new(1, 5)
                        .with_trees(9)
                        .with_packing(PackingVersion::V1Greedy),
                ),
            ),
            (
                CompilerDef::CycleCover { f: 1 },
                Box::new(CycleCoverAdapter::new(1)),
            ),
            (
                CompilerDef::Expander {
                    f: 1,
                    k: 5,
                    bfs_rounds: 6,
                    seed: 13,
                },
                Box::new(ExpanderAdapter::new(1, 5, 6, 13)),
            ),
            (
                CompilerDef::Rewind { f: 1, seed: 3 },
                Box::new(RewindAdapter::new(1, 3)),
            ),
            (
                CompilerDef::StaticToMobile {
                    t: 4,
                    words: 2,
                    seed: 5,
                },
                Box::new(StaticToMobileAdapter::new(4, 2, 5)),
            ),
            (
                CompilerDef::CongestionSensitive {
                    f: 1,
                    words: 2,
                    seed: 17,
                },
                Box::new(CongestionSensitiveAdapter::new(1, 2, 17)),
            ),
        ];
        for (def, adapter) in defs {
            let built = def.build();
            assert_eq!(built.name(), adapter.name(), "registry name drift");
            assert_eq!(built.kind(), adapter.kind(), "registry kind drift");
            assert_eq!(def.kind(), adapter.kind());
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
            .compiled_with(StaticToMobileAdapter::new(4, 2, 99))
            .run()
            .unwrap();
        assert_eq!(report.agrees_with_fault_free(), Some(true));
        assert!(!report.view.is_empty());
        assert!(!report.view_contains_any(&[321]));
    }
}
