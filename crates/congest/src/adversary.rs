//! Edge adversaries: who is corrupted, when, and how.
//!
//! The paper's adversarial model (Section 1.4) is an all-powerful entity that
//! each round controls a set of edges whose identity the nodes do not know.
//! Two *roles* are distinguished:
//!
//! * **eavesdropper** — passively records the traffic on controlled edges
//!   (the security experiments inspect the recorded view);
//! * **byzantine** — rewrites the traffic on controlled edges arbitrarily.
//!
//! Orthogonally, a *budget* constrains which sets may be controlled:
//! a fixed set (static adversary), at most `f` edges per round (mobile
//! adversary), or a total of `f·r` edge-rounds (round-error-rate adversary).
//! The [`crate::network::Network`] enforces the budget; strategies only express
//! *intent*.
//!
//! Strategies mark the edges they want into a reusable [`EdgeSet`]
//! ([`AdversaryStrategy::mark_edges`]) instead of returning a fresh
//! collection every round, so the per-round engine path is allocation-free;
//! [`AdversaryStrategy::choose_edges`] remains as the allocating convenience
//! for tests and diagnostics.  What a strategy sees of the round it chooses
//! edges for is a [`RoundView`] — the traffic's *shape* — whether the round's
//! traffic was built in a buffer or is only described by a pattern.

use crate::traffic::{Payload, Traffic};
use netgraph::{ArcId, EdgeId, Graph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Whether the adversary reads or rewrites the traffic it controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryRole {
    /// Record traffic on controlled edges (security experiments).
    Eavesdropper,
    /// Corrupt traffic on controlled edges (resilience experiments).
    Byzantine,
}

/// The budget constraining which edges may be controlled over time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptionBudget {
    /// No edges may ever be controlled (fault-free execution).
    None,
    /// A fixed set of edges is controlled in every round (static adversary).
    Static(Vec<EdgeId>),
    /// At most `f` (arbitrary, possibly different) edges per round (mobile adversary).
    Mobile {
        /// The per-round edge bound.
        f: usize,
    },
    /// A total budget of `total` edge-rounds across the whole execution
    /// (round-error-rate adversary: `total = f · r`).
    RoundErrorRate {
        /// The whole-execution edge-round budget.
        total: usize,
    },
}

impl CorruptionBudget {
    /// The per-round cap implied by the budget given the remaining allowance.
    pub(crate) fn round_cap(&self, spent: usize) -> usize {
        match self {
            CorruptionBudget::None => 0,
            CorruptionBudget::Static(edges) => edges.len(),
            CorruptionBudget::Mobile { f } => *f,
            CorruptionBudget::RoundErrorRate { total } => total.saturating_sub(spent),
        }
    }

    /// Whether an edge is eligible under a static budget.
    pub(crate) fn allows_edge(&self, e: EdgeId) -> bool {
        match self {
            CorruptionBudget::Static(edges) => edges.contains(&e),
            CorruptionBudget::None => false,
            _ => true,
        }
    }
}

/// A deduplicating, insertion-ordered edge set backed by a reusable bitset.
///
/// This is the vehicle strategies mark their wanted edges into: the network
/// owns one, [`EdgeSet::reset`]s it each round (clearing only the words of
/// the edges marked since the last reset, no allocation at steady state), and
/// reads the marked edges back in insertion order — the order budget clamping
/// honours.
#[derive(Debug, Clone, Default)]
pub struct EdgeSet {
    /// One bit per edge id (grown on demand).
    bits: Vec<u64>,
    /// Marked edges in first-insertion order.
    order: Vec<EdgeId>,
}

impl EdgeSet {
    /// An empty set (no capacity reserved yet).
    pub fn new() -> Self {
        EdgeSet::default()
    }

    /// Clear the set and make sure `edge_count` edges fit without growing.
    ///
    /// `O(marked)`, not `O(edge_count / 64)`: every set bit belongs to an
    /// edge in the insertion order, so zeroing those edges' words clears the
    /// bitset.  The bitset never shrinks; bits past `edge_count` read as
    /// unmarked like any other.
    pub fn reset(&mut self, edge_count: usize) {
        for &e in &self.order {
            self.bits[e / 64] = 0;
        }
        self.order.clear();
        let words = edge_count.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Mark an edge; returns `true` if it was newly inserted.
    pub fn insert(&mut self, e: EdgeId) -> bool {
        let (word, bit) = (e / 64, 1u64 << (e % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & bit != 0 {
            return false;
        }
        self.bits[word] |= bit;
        self.order.push(e);
        true
    }

    /// Whether `e` is marked.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.bits
            .get(e / 64)
            .is_some_and(|w| w & (1u64 << (e % 64)) != 0)
    }

    /// Number of marked edges.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The marked edges in first-insertion order.
    pub fn as_slice(&self) -> &[EdgeId] {
        &self.order
    }

    /// Iterate the marked edges in first-insertion order.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.order.iter().copied()
    }
}

/// How a byzantine adversary rewrites a controlled message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Replace the payload with uniformly random words of the same length
    /// (length 1 if the original message was empty).
    ReplaceRandom,
    /// XOR the first word with 1 (minimal, hard-to-detect corruption).
    FlipLowBit,
    /// Drop the message entirely.
    Drop,
    /// Replace with a fixed word repeated to the original length.
    Constant(u64),
}

impl CorruptionMode {
    /// Apply the corruption into a reusable buffer: `out` receives the
    /// replacement payload and the return value says whether a message is
    /// present at all (`false` ⇒ the message is dropped).  This is the
    /// allocation-free path the network's round engine uses.
    pub fn apply_into<R: Rng + ?Sized>(
        &self,
        original: Option<&[u64]>,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) -> bool {
        out.clear();
        match self {
            CorruptionMode::ReplaceRandom => {
                let len = original.map(|p| p.len().max(1)).unwrap_or(1);
                out.extend((0..len).map(|_| rng.gen::<u64>()));
                true
            }
            CorruptionMode::FlipLowBit => {
                match original {
                    Some(p) if !p.is_empty() => out.extend_from_slice(p),
                    _ => out.push(0),
                }
                out[0] ^= 1;
                true
            }
            CorruptionMode::Drop => false,
            CorruptionMode::Constant(w) => {
                let len = original.map(|p| p.len().max(1)).unwrap_or(1);
                out.extend(std::iter::repeat_n(*w, len));
                true
            }
        }
    }

    /// Whether rewriting `original` would change the message, without
    /// writing the rewrite anywhere: exactly the RNG draws of
    /// [`CorruptionMode::apply_into`] and exactly its outcome under the
    /// engine's rule — a dropped message changes a present one, a present
    /// one changes an absent one, and two present ones differ iff their words
    /// do.  Pattern rounds, which keep no rewrite, ask this instead.
    pub fn alters<R: Rng + ?Sized>(&self, original: Option<&[u64]>, rng: &mut R) -> bool {
        match (self, original) {
            // Every word is drawn, equal or not (`|`, not `||`).
            (CorruptionMode::ReplaceRandom, Some(p)) if !p.is_empty() => p
                .iter()
                .fold(false, |changed, &w| changed | (rng.gen::<u64>() != w)),
            (CorruptionMode::ReplaceRandom, _) => {
                rng.gen::<u64>();
                true
            }
            (CorruptionMode::Drop, original) => original.is_some(),
            (CorruptionMode::Constant(w), Some(p)) if !p.is_empty() => p.iter().any(|x| x != w),
            // A flipped bit always differs; an empty or absent message
            // becomes a one-word one.
            (CorruptionMode::FlipLowBit | CorruptionMode::Constant(_), _) => true,
        }
    }

    /// Apply the corruption to an optional payload, allocating the result
    /// (convenience wrapper over [`CorruptionMode::apply_into`]).
    pub fn apply<R: Rng + ?Sized>(
        &self,
        original: Option<&Payload>,
        rng: &mut R,
    ) -> Option<Payload> {
        let mut out = Vec::new();
        self.apply_into(original.map(|p| p.as_slice()), rng, &mut out)
            .then_some(out)
    }
}

/// The shape of a round whose traffic is not the dense round's own buffer —
/// a pattern round's description ([`crate::network::PatternRounds`]) or a
/// held round's buffer ([`crate::network::HeldRounds`]) — type-erased for
/// [`RoundView`].
pub(crate) trait ArcLens {
    /// Length of the message on `arc`, `None` when it carries none.
    fn arc_len(&self, arc: ArcId) -> Option<usize>;

    /// Add the number of words on every edge, both directions together, into
    /// `out` (one slot per edge).
    fn add_edge_words(&self, out: &mut [usize]);
}

/// A held round's buffer is its own shape: lengths are read off its spans.
impl ArcLens for Traffic {
    fn arc_len(&self, arc: ArcId) -> Option<usize> {
        self.get_arc(arc).map(<[u64]>::len)
    }
    fn add_edge_words(&self, out: &mut [usize]) {
        for (arc, len) in self.iter_lens() {
            out[Graph::edge_of(arc)] += len;
        }
    }
}

/// Which recurring shape a pattern or held round runs: the scope's serial
/// and the pattern's index in that scope's family.
///
/// A [`crate::network::PatternRounds`] scope numbers its family's patterns;
/// a [`crate::network::HeldRounds`] scope takes a fresh serial (index 0) each
/// time a write changes its buffer's shape.  Either way every round shown
/// under one `PatternId` has the same shape, so whatever a strategy derives
/// from the shape alone it may compute once per `PatternId`.  `scope` comes
/// from a process-wide counter: two scopes — over different families, on
/// different networks, or after a strategy was cloned — never share one, and
/// no scope is `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternId {
    /// Serial of the scope (or of the held shape) the round runs in.
    pub scope: u64,
    /// Index of the pattern in the scope's family.
    pub index: usize,
}

/// What a strategy observes of the round it is choosing edges for: the
/// **shape** of the outgoing traffic — which arcs carry a message and how
/// many words, and in a pattern or held round which shape
/// ([`RoundView::pattern`]) — never the words themselves.
///
/// No strategy in the workspace ever chose its edges by payload content, and
/// this type makes that the contract: it is what lets the engine run a round
/// whose traffic exists only as a description (see
/// [`crate::network::Network::pattern_rounds`]) under exactly the strategy
/// behaviour of a round built in a [`Traffic`].  The *rewrite* of a controlled
/// message is not limited by it: [`CorruptionMode::apply_into`] always gets
/// the exact original words.
pub struct RoundView<'a> {
    /// Number of edges of the graph the round runs on.
    edges: usize,
    shape: Shape<'a>,
}

enum Shape<'a> {
    /// A round built in a buffer: lengths are read off its spans.
    Dense(&'a Traffic),
    /// A pattern or held round: lengths and per-edge totals from its lens.
    Pattern {
        lens: &'a dyn ArcLens,
        id: PatternId,
    },
}

impl<'a> RoundView<'a> {
    /// The view of a round whose outgoing traffic is `traffic`, on `graph`.
    pub fn of(graph: &Graph, traffic: &'a Traffic) -> Self {
        RoundView {
            edges: graph.edge_count(),
            shape: Shape::Dense(traffic),
        }
    }

    /// The view of the pattern or held round of shape `id` on a graph of
    /// `edges` edges.
    pub(crate) fn of_pattern(lens: &'a dyn ArcLens, edges: usize, id: PatternId) -> Self {
        RoundView {
            edges,
            shape: Shape::Pattern { lens, id },
        }
    }

    /// Which shape the round runs, `None` for a dense round.  Two rounds with
    /// the same `PatternId` have the same shape.
    pub fn pattern(&self) -> Option<PatternId> {
        match self.shape {
            Shape::Dense(_) => None,
            Shape::Pattern { id, .. } => Some(id),
        }
    }

    /// Length of the message on `arc`, `None` when it carries none.
    pub fn arc_len(&self, arc: ArcId) -> Option<usize> {
        match self.shape {
            Shape::Dense(traffic) => traffic.get_arc(arc).map(<[u64]>::len),
            Shape::Pattern { lens, .. } => lens.arc_len(arc),
        }
    }

    /// Fill `out` with the number of payload words on every edge, both
    /// directions together (`out.len()` becomes the graph's edge count).
    /// One walk over the spans of a built round or the messages of a
    /// described one; `out`'s capacity is reused either way.
    pub fn edge_words_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.resize(self.edges, 0);
        match self.shape {
            Shape::Dense(traffic) => {
                for (arc, len) in traffic.iter_lens() {
                    out[Graph::edge_of(arc)] += len;
                }
            }
            Shape::Pattern { lens, .. } => lens.add_edge_words(out),
        }
    }
}

/// A strategy deciding which edges the adversary *wants* to control each round.
///
/// The network intersects the request with the configured budget, so a strategy
/// never needs to worry about exceeding `f`; asking for more than allowed just
/// means the surplus is ignored (in request order).
///
/// Implement [`AdversaryStrategy::mark_edges`]; the network calls it with a
/// recycled [`EdgeSet`] so the hot path never allocates.  It is the one
/// marking method, for every kind of round: the [`RoundView`] it receives is
/// backed by the round's [`Traffic`] when there is one and by the round's
/// pattern when there is not, and answers the same either way.
pub trait AdversaryStrategy: Send {
    /// Human-readable name for experiment reports.
    fn name(&self) -> String;

    /// Mark the edges the adversary wants to control in this round into
    /// `out` (already cleared and sized by the caller).  The strategy sees
    /// the shape of the round's full outgoing traffic through `view` (the
    /// adversary is all-powerful and rushing: it chooses after the nodes have
    /// sent), but neither the words nor the nodes' private randomness.
    /// Insertion order is the priority order budget clamping honours.
    fn mark_edges(&mut self, round: usize, graph: &Graph, view: &RoundView, out: &mut EdgeSet);

    /// Edges the adversary wants to control in this round, as an owned,
    /// deduplicated list (allocating convenience over
    /// [`AdversaryStrategy::mark_edges`], for tests and diagnostics).
    fn choose_edges(&mut self, round: usize, graph: &Graph, traffic: &Traffic) -> Vec<EdgeId> {
        let mut out = EdgeSet::new();
        out.reset(graph.edge_count());
        self.mark_edges(round, graph, &RoundView::of(graph, traffic), &mut out);
        out.as_slice().to_vec()
    }

    /// How controlled byzantine messages are rewritten (ignored for eavesdroppers).
    fn corruption_mode(&self) -> CorruptionMode {
        CorruptionMode::ReplaceRandom
    }
}

/// A strategy that never controls any edge (fault-free baseline).
#[derive(Debug, Default, Clone)]
pub struct NoAdversary;

impl AdversaryStrategy for NoAdversary {
    fn name(&self) -> String {
        "none".into()
    }
    fn mark_edges(&mut self, _round: usize, _graph: &Graph, _view: &RoundView, _out: &mut EdgeSet) {
    }
}

/// Controls the same fixed set of edges every round (the classical static adversary).
#[derive(Debug, Clone)]
pub struct FixedEdges {
    edges: Vec<EdgeId>,
    mode: CorruptionMode,
}

impl FixedEdges {
    /// Control exactly these edges every round.
    pub fn new(edges: Vec<EdgeId>) -> Self {
        FixedEdges {
            edges,
            mode: CorruptionMode::ReplaceRandom,
        }
    }

    /// Select the corruption mode.
    pub fn with_mode(mut self, mode: CorruptionMode) -> Self {
        self.mode = mode;
        self
    }
}

impl AdversaryStrategy for FixedEdges {
    fn name(&self) -> String {
        format!("static({})", self.edges.len())
    }
    fn mark_edges(&mut self, _round: usize, _graph: &Graph, _view: &RoundView, out: &mut EdgeSet) {
        for &e in &self.edges {
            out.insert(e);
        }
    }
    fn corruption_mode(&self) -> CorruptionMode {
        self.mode
    }
}

/// Controls `f` uniformly random edges, re-drawn every round — the canonical
/// mobile adversary.
#[derive(Debug, Clone)]
pub struct RandomMobile {
    f: usize,
    rng: ChaCha8Rng,
    mode: CorruptionMode,
}

impl RandomMobile {
    /// Control `f` random edges per round, using `seed` for reproducibility.
    pub fn new(f: usize, seed: u64) -> Self {
        RandomMobile {
            f,
            rng: ChaCha8Rng::seed_from_u64(seed),
            mode: CorruptionMode::ReplaceRandom,
        }
    }

    /// Select the corruption mode.
    pub fn with_mode(mut self, mode: CorruptionMode) -> Self {
        self.mode = mode;
        self
    }
}

impl AdversaryStrategy for RandomMobile {
    fn name(&self) -> String {
        format!("random-mobile(f={})", self.f)
    }
    fn mark_edges(&mut self, _round: usize, graph: &Graph, _view: &RoundView, out: &mut EdgeSet) {
        let m = graph.edge_count();
        if m == 0 {
            return;
        }
        let mut tries = 0;
        while out.len() < self.f.min(m) && tries < 20 * self.f.max(1) {
            out.insert(self.rng.gen_range(0..m));
            tries += 1;
        }
    }
    fn corruption_mode(&self) -> CorruptionMode {
        self.mode
    }
}

/// Sweeps over the edge set round-robin, `f` edges at a time — guarantees that
/// *every* edge is eventually corrupted, which defeats any protocol relying on
/// some edge staying clean forever (the attack that breaks static compilers in
/// the mobile setting).
#[derive(Debug, Clone)]
pub struct SweepMobile {
    f: usize,
    cursor: usize,
    mode: CorruptionMode,
}

impl SweepMobile {
    /// Control `f` consecutive edges per round, advancing the window each round.
    pub fn new(f: usize) -> Self {
        SweepMobile {
            f,
            cursor: 0,
            mode: CorruptionMode::ReplaceRandom,
        }
    }

    /// Select the corruption mode.
    pub fn with_mode(mut self, mode: CorruptionMode) -> Self {
        self.mode = mode;
        self
    }
}

impl AdversaryStrategy for SweepMobile {
    fn name(&self) -> String {
        format!("sweep-mobile(f={})", self.f)
    }
    fn mark_edges(&mut self, _round: usize, graph: &Graph, _view: &RoundView, out: &mut EdgeSet) {
        let m = graph.edge_count();
        if m == 0 {
            return;
        }
        for i in 0..self.f.min(m) {
            out.insert((self.cursor + i) % m);
        }
        self.cursor = (self.cursor + self.f) % m;
    }
    fn corruption_mode(&self) -> CorruptionMode {
        self.mode
    }
}

/// Prefers the edges currently carrying the most data ("greedy heaviest"):
/// a natural attack against aggregation trees, where high-traffic edges are the
/// ones carrying combined sketches.
#[derive(Debug, Clone)]
pub struct GreedyHeaviest {
    f: usize,
    mode: CorruptionMode,
    ranking: HeaviestRanking,
}

impl GreedyHeaviest {
    /// Control the `f` edges with the largest total payload each round.
    pub fn new(f: usize) -> Self {
        GreedyHeaviest {
            f,
            mode: CorruptionMode::ReplaceRandom,
            ranking: HeaviestRanking::default(),
        }
    }

    /// Select the corruption mode.
    pub fn with_mode(mut self, mode: CorruptionMode) -> Self {
        self.mode = mode;
        self
    }
}

/// The `f` heaviest edges of a weight vector into `ranked`, heaviest first
/// (ties by edge id).
///
/// Streaming top-`f`: `ranked` holds the best `min(f, m)` edges seen so far in
/// final order, so with the usual small `f` an edge costs one comparison
/// against the current `f`-th heaviest instead of a share of a full sort.
/// Edges arrive in increasing id, so a newcomer ranks after every kept edge
/// of equal weight.
fn top_heaviest(weight: &[usize], f: usize, ranked: &mut Vec<EdgeId>) {
    ranked.clear();
    let keep = f.min(weight.len());
    for (e, &w) in weight.iter().enumerate() {
        if ranked.len() == keep {
            if ranked.last().is_none_or(|&last| w <= weight[last]) {
                continue;
            }
            ranked.pop();
        }
        let at = ranked.partition_point(|&x| weight[x] >= w);
        ranked.insert(at, e);
    }
}

/// The heaviest-first ranking of the rounds a weighing strategy sees — the
/// shared core of [`GreedyHeaviest`] and [`AdaptiveHeaviest`].
///
/// A dense round is ranked afresh: one fold of its lengths, one
/// [`top_heaviest`].  A pattern or held round's per-edge totals are fixed for
/// its [`PatternId`], so each id is ranked the first time it is seen and
/// replayed from the memo after that: `O(f)` per round instead of `O(m)`.
#[derive(Debug, Clone, Default)]
struct HeaviestRanking {
    /// Per-edge weight scratch.
    weight: Vec<usize>,
    /// The last dense round's ranking.
    dense: Vec<EdgeId>,
    /// Per pattern index: the scope it was last ranked in (`0`: never) and
    /// its ranking there.
    memo: Vec<(u64, Vec<EdgeId>)>,
}

impl HeaviestRanking {
    /// The `f` heaviest edges of the round `view` shows, heaviest first.
    fn top(&mut self, view: &RoundView, f: usize) -> &[EdgeId] {
        let Some(id) = view.pattern() else {
            view.edge_words_into(&mut self.weight);
            top_heaviest(&self.weight, f, &mut self.dense);
            return &self.dense;
        };
        if self.memo.len() <= id.index {
            self.memo.resize_with(id.index + 1, Default::default);
        }
        let (scope, ranked) = &mut self.memo[id.index];
        if *scope != id.scope {
            view.edge_words_into(&mut self.weight);
            top_heaviest(&self.weight, f, ranked);
            *scope = id.scope;
        }
        ranked
    }
}

impl AdversaryStrategy for GreedyHeaviest {
    fn name(&self) -> String {
        format!("greedy-heaviest(f={})", self.f)
    }
    fn mark_edges(&mut self, _round: usize, _graph: &Graph, view: &RoundView, out: &mut EdgeSet) {
        for &e in self.ranking.top(view, self.f) {
            out.insert(e);
        }
    }
    fn corruption_mode(&self) -> CorruptionMode {
        self.mode
    }
}

/// Re-targets using the loads it *observed in the previous round*: the rushing
/// adversary of [`GreedyHeaviest`] sees the current round before choosing, but
/// an adaptive adversary that must commit its taps before the round starts can
/// only extrapolate — the natural attack model against pipelines whose traffic
/// pattern is stable across rounds (aggregation trees, keystream exchanges).
///
/// Round 0 has no observation yet, so the lowest-id edges are attacked first.
#[derive(Debug, Clone)]
pub struct AdaptiveHeaviest {
    f: usize,
    mode: CorruptionMode,
    /// The previous round's `f` heaviest edges, heaviest first.
    prev: Vec<EdgeId>,
    /// Edge count of the graph `prev` was observed on (`None`: nothing yet).
    observed: Option<usize>,
    ranking: HeaviestRanking,
}

impl AdaptiveHeaviest {
    /// Control the `f` edges that carried the largest total payload in the
    /// previous round.
    pub fn new(f: usize) -> Self {
        AdaptiveHeaviest {
            f,
            mode: CorruptionMode::ReplaceRandom,
            prev: Vec::new(),
            observed: None,
            ranking: HeaviestRanking::default(),
        }
    }

    /// Select the corruption mode.
    pub fn with_mode(mut self, mode: CorruptionMode) -> Self {
        self.mode = mode;
        self
    }
}

impl AdversaryStrategy for AdaptiveHeaviest {
    fn name(&self) -> String {
        format!("adaptive-heaviest(f={})", self.f)
    }
    fn mark_edges(&mut self, _round: usize, graph: &Graph, view: &RoundView, out: &mut EdgeSet) {
        let m = graph.edge_count();
        if self.observed != Some(m) {
            // Nothing observed on this graph: all loads are zero, and the
            // ranking breaks the tie by edge id.
            self.prev.clear();
            self.prev.extend(0..self.f.min(m));
        }
        // Target by last round's observation …
        for &e in &self.prev {
            out.insert(e);
        }
        // … then observe the current round for the next one.
        let top = self.ranking.top(view, self.f);
        self.prev.clear();
        self.prev.extend_from_slice(top);
        self.observed = Some(m);
    }
    fn corruption_mode(&self) -> CorruptionMode {
        self.mode
    }
}

/// Concentrates the whole budget on one node's incident edges — the eclipse
/// attack.  With `f ≥ deg(v)` the victim is fully cut off every round; with a
/// smaller budget the window rotates through the incident edges so every one
/// of them is eventually hit (no edge of the victim stays clean forever).
#[derive(Debug, Clone)]
pub struct EclipseNode {
    node: NodeId,
    f: usize,
    cursor: usize,
    mode: CorruptionMode,
}

impl EclipseNode {
    /// Attack up to `f` of `node`'s incident edges per round.
    pub fn new(node: NodeId, f: usize) -> Self {
        EclipseNode {
            node,
            f,
            cursor: 0,
            mode: CorruptionMode::ReplaceRandom,
        }
    }

    /// Select the corruption mode.
    pub fn with_mode(mut self, mode: CorruptionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The node under attack.
    pub fn target(&self) -> NodeId {
        self.node
    }
}

impl AdversaryStrategy for EclipseNode {
    fn name(&self) -> String {
        format!("eclipse(v={},f={})", self.node, self.f)
    }
    fn mark_edges(&mut self, _round: usize, graph: &Graph, _view: &RoundView, out: &mut EdgeSet) {
        if self.node >= graph.node_count() {
            return;
        }
        let incident = graph.neighbors(self.node);
        let deg = incident.len();
        if deg == 0 {
            return;
        }
        for i in 0..self.f.min(deg) {
            out.insert(incident[(self.cursor + i) % deg].1);
        }
        self.cursor = (self.cursor + self.f) % deg;
    }
    fn corruption_mode(&self) -> CorruptionMode {
        self.mode
    }
}

/// A bursty adversary for the round-error-rate model: quiet for `quiet` rounds,
/// then corrupts as many edges as it can for `burst` rounds, repeating.
/// Combined with a [`CorruptionBudget::RoundErrorRate`] budget this realises
/// the "invest a large budget of faults in specific rounds" behaviour of
/// Section 4.
#[derive(Debug, Clone)]
pub struct BurstAdversary {
    quiet: usize,
    burst: usize,
    per_burst_round: usize,
    rng: ChaCha8Rng,
    mode: CorruptionMode,
}

impl BurstAdversary {
    /// Quiet for `quiet` rounds, then corrupt `per_burst_round` random edges in
    /// each of the next `burst` rounds, repeating.
    pub fn new(quiet: usize, burst: usize, per_burst_round: usize, seed: u64) -> Self {
        BurstAdversary {
            quiet,
            burst,
            per_burst_round,
            rng: ChaCha8Rng::seed_from_u64(seed),
            mode: CorruptionMode::ReplaceRandom,
        }
    }

    /// Select the corruption mode.
    pub fn with_mode(mut self, mode: CorruptionMode) -> Self {
        self.mode = mode;
        self
    }
}

impl AdversaryStrategy for BurstAdversary {
    fn name(&self) -> String {
        format!(
            "burst(quiet={},burst={},per={})",
            self.quiet, self.burst, self.per_burst_round
        )
    }
    fn mark_edges(&mut self, round: usize, graph: &Graph, _view: &RoundView, out: &mut EdgeSet) {
        let period = self.quiet + self.burst;
        if period == 0 || round % period < self.quiet {
            return;
        }
        let m = graph.edge_count();
        if m == 0 {
            return;
        }
        let mut tries = 0;
        while out.len() < self.per_burst_round.min(m) && tries < 20 * self.per_burst_round.max(1) {
            out.insert(self.rng.gen_range(0..m));
            tries += 1;
        }
    }
    fn corruption_mode(&self) -> CorruptionMode {
        self.mode
    }
}

/// An eavesdropping schedule that follows an explicit per-round list of edges —
/// used by the security tests to couple the adversary's view across executions
/// on different inputs.
#[derive(Debug, Clone)]
pub struct ScheduledEdges {
    schedule: Vec<Vec<EdgeId>>,
}

impl ScheduledEdges {
    /// Control exactly `schedule[i]` in round `i` (empty after the schedule ends).
    pub fn new(schedule: Vec<Vec<EdgeId>>) -> Self {
        ScheduledEdges { schedule }
    }
}

impl AdversaryStrategy for ScheduledEdges {
    fn name(&self) -> String {
        format!("scheduled({} rounds)", self.schedule.len())
    }
    fn mark_edges(&mut self, round: usize, _graph: &Graph, _view: &RoundView, out: &mut EdgeSet) {
        if let Some(edges) = self.schedule.get(round) {
            for &e in edges {
                out.insert(e);
            }
        }
    }
}

/// A concrete per-round corruption schedule applied **cyclically**: round `r`
/// corrupts the edges of entry `r % len`, forever.  This is the runtime form
/// of the red-team search's synthesized adversaries
/// (`AdversaryDef::Synthesized`): the whole attack is data, so a found
/// counterexample replays byte-identically from its serialized spec.
///
/// Unlike [`ScheduledEdges`] (an eavesdrop coupling tool that goes quiet when
/// its list ends), the cyclic application means a 1-entry schedule is exactly
/// the classical static adversary and an `R`-entry schedule attacks every
/// round of an arbitrarily long compiled execution — which is what makes
/// shrinking along the rounds dimension meaningful.
#[derive(Debug, Clone)]
pub struct SynthesizedSchedule {
    schedule: Vec<Vec<EdgeId>>,
    mode: CorruptionMode,
}

impl SynthesizedSchedule {
    /// Corrupt `schedule[round % schedule.len()]` every round (an empty
    /// schedule never corrupts anything).
    pub fn new(schedule: Vec<Vec<EdgeId>>) -> Self {
        SynthesizedSchedule {
            schedule,
            mode: CorruptionMode::FlipLowBit,
        }
    }

    /// Select the corruption mode (default: [`CorruptionMode::FlipLowBit`],
    /// the minimal hard-to-detect corruption red-team counterexamples aim
    /// for).
    pub fn with_mode(mut self, mode: CorruptionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The per-round edge budget the schedule implies: the longest per-round
    /// entry (at least 1, so the budget stays meaningful for empty
    /// schedules).
    pub fn max_edges_per_round(&self) -> usize {
        self.schedule
            .iter()
            .map(|edges| edges.len())
            .max()
            .unwrap_or(0)
            .max(1)
    }
}

impl AdversaryStrategy for SynthesizedSchedule {
    fn name(&self) -> String {
        format!(
            "synthesized(r={},f={})",
            self.schedule.len(),
            self.max_edges_per_round()
        )
    }
    fn mark_edges(&mut self, round: usize, _graph: &Graph, _view: &RoundView, out: &mut EdgeSet) {
        if self.schedule.is_empty() {
            return;
        }
        for &e in &self.schedule[round % self.schedule.len()] {
            out.insert(e);
        }
    }
    fn corruption_mode(&self) -> CorruptionMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    fn empty_traffic(g: &Graph) -> Traffic {
        Traffic::new(g)
    }

    #[test]
    fn budgets_round_caps() {
        assert_eq!(CorruptionBudget::None.round_cap(0), 0);
        assert_eq!(CorruptionBudget::Mobile { f: 3 }.round_cap(100), 3);
        assert_eq!(CorruptionBudget::Static(vec![1, 2]).round_cap(0), 2);
        let rate = CorruptionBudget::RoundErrorRate { total: 10 };
        assert_eq!(rate.round_cap(0), 10);
        assert_eq!(rate.round_cap(7), 3);
        assert_eq!(rate.round_cap(12), 0);
    }

    #[test]
    fn edge_set_dedups_and_keeps_order() {
        let mut s = EdgeSet::new();
        s.reset(100);
        assert!(s.insert(7));
        assert!(s.insert(3));
        assert!(!s.insert(7));
        assert!(s.insert(99));
        assert!(s.contains(3) && s.contains(7) && s.contains(99));
        assert!(!s.contains(4));
        assert_eq!(s.as_slice(), &[7, 3, 99]);
        assert_eq!(s.len(), 3);
        s.reset(100);
        assert!(s.is_empty());
        assert!(!s.contains(7));
        // Inserting beyond the reset capacity grows the bitset.
        assert!(s.insert(1000));
        assert!(s.contains(1000));
    }

    proptest::proptest! {
        // `reset` clears only the words of the edges it marked; whatever was
        // marked before — past `edge_count` too, which grows the bitset — a
        // reset set must act as a fresh one reset to the same count.
        #[test]
        fn reset_after_arbitrary_inserts_equals_a_fresh_set(
            rounds in proptest::prop::collection::vec(
                (0usize..300, proptest::prop::collection::vec(0usize..400, 0..24)),
                1..6,
            ),
        ) {
            let mut reused = EdgeSet::new();
            for (edge_count, inserts) in &rounds {
                reused.reset(*edge_count);
                let mut fresh = EdgeSet::new();
                fresh.reset(*edge_count);
                proptest::prop_assert!(reused.is_empty());
                proptest::prop_assert!(reused.bits.len() >= edge_count.div_ceil(64));
                for &e in inserts {
                    proptest::prop_assert_eq!(reused.insert(e), fresh.insert(e), "insert {}", e);
                }
                proptest::prop_assert_eq!(reused.as_slice(), fresh.as_slice());
                for e in 0..420 {
                    proptest::prop_assert_eq!(reused.contains(e), fresh.contains(e), "edge {}", e);
                }
            }
        }
    }

    #[test]
    fn corruption_modes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let orig = vec![5u64, 6];
        assert_eq!(CorruptionMode::Drop.apply(Some(&orig), &mut rng), None);
        assert_eq!(
            CorruptionMode::FlipLowBit.apply(Some(&orig), &mut rng),
            Some(vec![4, 6])
        );
        assert_eq!(
            CorruptionMode::Constant(9).apply(Some(&orig), &mut rng),
            Some(vec![9, 9])
        );
        let r = CorruptionMode::ReplaceRandom
            .apply(Some(&orig), &mut rng)
            .unwrap();
        assert_eq!(r.len(), 2);
        // Empty original still yields a (non-empty) fabricated message.
        assert_eq!(
            CorruptionMode::Constant(3).apply(None, &mut rng),
            Some(vec![3])
        );
    }

    #[test]
    fn apply_into_reuses_the_buffer() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut out = Vec::new();
        assert!(CorruptionMode::Constant(7).apply_into(Some(&[1, 2, 3]), &mut rng, &mut out));
        assert_eq!(out, vec![7, 7, 7]);
        let cap = out.capacity();
        assert!(!CorruptionMode::Drop.apply_into(Some(&[1]), &mut rng, &mut out));
        assert!(CorruptionMode::FlipLowBit.apply_into(None, &mut rng, &mut out));
        assert_eq!(out, vec![1]);
        assert_eq!(
            out.capacity(),
            cap,
            "shrinking applications must not realloc"
        );
    }

    #[test]
    fn random_mobile_respects_f_and_is_reproducible() {
        let g = generators::complete(8);
        let t = empty_traffic(&g);
        let mut a = RandomMobile::new(4, 99);
        let mut b = RandomMobile::new(4, 99);
        for round in 0..10 {
            let ea = a.choose_edges(round, &g, &t);
            let eb = b.choose_edges(round, &g, &t);
            assert_eq!(ea, eb);
            assert!(ea.len() <= 4);
            let unique: std::collections::HashSet<_> = ea.iter().collect();
            assert_eq!(unique.len(), ea.len());
        }
    }

    #[test]
    fn sweep_covers_all_edges() {
        let g = generators::cycle(7);
        let t = empty_traffic(&g);
        let mut s = SweepMobile::new(2);
        let mut covered = std::collections::HashSet::new();
        for round in 0..10 {
            for e in s.choose_edges(round, &g, &t) {
                covered.insert(e);
            }
        }
        assert_eq!(covered.len(), g.edge_count());
    }

    #[test]
    fn greedy_heaviest_targets_busy_edges() {
        let g = generators::path(4);
        let mut t = Traffic::new(&g);
        t.send(&g, 1, 2, vec![1, 2, 3, 4, 5]);
        t.send(&g, 0, 1, vec![1]);
        let mut adv = GreedyHeaviest::new(1);
        let chosen = adv.choose_edges(0, &g, &t);
        assert_eq!(chosen, vec![g.edge_between(1, 2).unwrap()]);
    }

    /// The pre-streaming ranking: sort all edges, take the top `f`.
    fn top_heaviest_by_full_sort(weight: &[usize], f: usize) -> Vec<EdgeId> {
        let mut ranked: Vec<EdgeId> = (0..weight.len()).collect();
        ranked.sort_unstable_by_key(|&e| (std::cmp::Reverse(weight[e]), e));
        ranked.truncate(f);
        ranked
    }

    proptest::proptest! {
        #[test]
        fn streaming_top_f_equals_the_full_sort(
            // Few distinct weights: most comparisons are ties.
            weight in proptest::prop::collection::vec(0usize..4, 0..40),
            f_small in 0usize..4,
        ) {
            let m = weight.len();
            let mut ranked = vec![99; 3]; // stale scratch must not leak through
            for f in [0, 1, 3, f_small, m, m + 5] {
                top_heaviest(&weight, f, &mut ranked);
                proptest::prop_assert_eq!(
                    &ranked[..],
                    &top_heaviest_by_full_sort(&weight, f)[..],
                    "f = {}, weights {:?}", f, weight
                );
            }
        }
    }

    #[test]
    fn adaptive_heaviest_lags_one_round_behind() {
        let g = generators::path(4);
        let busy = {
            let mut t = Traffic::new(&g);
            t.send(&g, 1, 2, vec![1, 2, 3, 4, 5]);
            t
        };
        let quiet = empty_traffic(&g);
        let mut adv = AdaptiveHeaviest::new(1);
        // Round 0: nothing observed yet — falls back to the lowest edge id.
        assert_eq!(adv.choose_edges(0, &g, &busy), vec![0]);
        // Round 1: now it targets what was busy in round 0, even though the
        // current round is quiet.
        assert_eq!(
            adv.choose_edges(1, &g, &quiet),
            vec![g.edge_between(1, 2).unwrap()]
        );
        // Round 2: last round was quiet — back to the fallback.
        assert_eq!(adv.choose_edges(2, &g, &quiet), vec![0]);
    }

    #[test]
    fn eclipse_node_rotates_through_incident_edges() {
        let g = generators::complete(5);
        let t = empty_traffic(&g);
        let mut adv = EclipseNode::new(2, 2);
        assert_eq!(adv.target(), 2);
        let mut covered = std::collections::HashSet::new();
        for round in 0..4 {
            let chosen = adv.choose_edges(round, &g, &t);
            assert!(chosen.len() <= 2);
            for e in chosen {
                assert!(g.edge(e).touches(2), "edge {e} must touch the victim");
                covered.insert(e);
            }
        }
        assert_eq!(covered.len(), g.degree(2), "rotation must cover all edges");
        // A full-degree budget cuts the victim off completely every round.
        let mut full = EclipseNode::new(2, 4);
        assert_eq!(full.choose_edges(0, &g, &t).len(), 4);
        // An out-of-range victim is a no-op, not a panic.
        let mut oob = EclipseNode::new(99, 2);
        assert!(oob.choose_edges(0, &g, &t).is_empty());
    }

    #[test]
    fn burst_adversary_is_quiet_then_bursts() {
        let g = generators::complete(5);
        let t = empty_traffic(&g);
        let mut adv = BurstAdversary::new(3, 2, 4, 1);
        assert!(adv.choose_edges(0, &g, &t).is_empty());
        assert!(adv.choose_edges(2, &g, &t).is_empty());
        assert!(!adv.choose_edges(3, &g, &t).is_empty());
        assert!(!adv.choose_edges(4, &g, &t).is_empty());
        assert!(adv.choose_edges(5, &g, &t).is_empty());
    }

    #[test]
    fn scheduled_edges_follow_schedule() {
        let g = generators::cycle(4);
        let t = empty_traffic(&g);
        let mut adv = ScheduledEdges::new(vec![vec![0], vec![], vec![1, 2]]);
        assert_eq!(adv.choose_edges(0, &g, &t), vec![0]);
        assert!(adv.choose_edges(1, &g, &t).is_empty());
        assert_eq!(adv.choose_edges(2, &g, &t), vec![1, 2]);
        assert!(adv.choose_edges(3, &g, &t).is_empty());
    }

    #[test]
    fn static_budget_filters_edges() {
        let b = CorruptionBudget::Static(vec![3, 5]);
        assert!(b.allows_edge(3));
        assert!(!b.allows_edge(4));
        assert!(CorruptionBudget::Mobile { f: 1 }.allows_edge(4));
        assert!(!CorruptionBudget::None.allows_edge(0));
    }
}
