//! The round-synchronous network with adversary interposition.
//!
//! A [`Network`] owns the communication graph, an adversary (role + strategy +
//! budget) and the execution metrics.  Protocols drive it through
//! [`Network::exchange`] (or the buffer-reusing
//! [`Network::exchange_in_place`]): they hand over the round's outgoing
//! [`Traffic`], the adversary picks the edges it controls (within its budget),
//! either records or rewrites the traffic on those edges, and the resulting
//! traffic is what the receiving nodes observe.
//!
//! The network also keeps the **corruption history** (which edges were
//! controlled in which round) and, for eavesdroppers, the **view log** (what
//! the adversary saw).  The first feeds the interactive-coding oracle of
//! Theorem 3.2; the second feeds the perfect-security experiments.
//!
//! # The zero-allocation round engine: one round body, three sources
//!
//! Every round runs the same body (`Network::run_round`): open the trace span
//! and count the round, let the strategy mark its wanted edges into a
//! recycled [`EdgeSet`], clamp them to the budget into a recycled `controlled`
//! vector, apply the adversary's role to both arcs of every controlled edge
//! (an eavesdropper copies them into the view log; a byzantine rewrite, under
//! the [`CorruptionMode`] the caller read off the strategy, is counted if it
//! changed the message), record the corruption, append to the flattened
//! [`CorruptionHistory`], close the span.  After warm-up a round executes
//! without touching the allocator (covered by buffer-reuse regression tests).
//! The three kinds of round differ only in where a controlled arc's original
//! words come from and where the rewrite goes:
//!
//! * a **dense** round ([`Network::exchange_in_place`]) reads and rewrites the
//!   caller's [`Traffic`] (the rewrite built in a recycled scratch, compared
//!   with the original and written back), whose flat arena the receivers then
//!   read, and walks its spans once for the traffic-volume metrics;
//! * a **pattern** round ([`Network::pattern_rounds`]) has no buffer at all.
//!   The caller describes its recurring rounds as [`RoundPatterns`] — which
//!   arcs carry how many words, and the words on one arc in one round.  The
//!   engine materialises only the `≤ 2f` controlled arcs into a recycled
//!   scratch.  A family that reads its deliveries
//!   ([`RoundPatterns::READS_DELIVERIES`]) gets each byzantine rewrite in a
//!   recycled [`Deliveries`] list ([`PatternRounds::delivered`]), as in a
//!   held round, and every other arc delivers what its pattern says; for any
//!   other family the engine asks [`CorruptionMode::alters`] whether the
//!   rewrite would change the arc (same RNG draws, same `altered` count) and
//!   builds nothing.  Either way the view entries and trace events are a
//!   dense round's, and the controlled edges are handed back.  Such a round
//!   costs `O(f)`, not `O(m)`; its traffic volume is settled in bulk when the
//!   [`PatternRounds`] scope ends, and a caller running several families of
//!   one plan back to back may run them all in one scope.  Three callers run
//!   this way: the Lemma 3.3 scheduler (`SchedulePlan`, one pattern per
//!   slot, no deliveries read), the key exchange of the secrecy compilers
//!   (`KeyPool::establish`, one pattern: every arc carries its pads, of which
//!   only the controlled arcs' are ever packed into words) and Theorem 1.3's
//!   simulation (`CongestionSensitiveCompiler::run`, one pattern, deliveries
//!   read: only the controlled arcs' frames are ever tagged and padded);
//! * a **held** round ([`Network::held_rounds`]) runs on a buffer the caller
//!   keeps across rounds — what every sender currently holds and sends again
//!   each round, like the relays of a flood.  The engine reads that buffer and
//!   never rewrites it: the `≤ 2f` rewritten arcs go to a recycled
//!   [`Deliveries`] list, and a receiver reads its arc through
//!   [`HeldRounds::received`] (the delivery if the adversary controlled the
//!   arc, the held message otherwise).  The scope owns every write to the
//!   buffer; a write that changes an arc's presence or length first settles
//!   the rounds run on the old shape through the bulk volume charge of pattern
//!   rounds and then opens a fresh [`PatternId`], so the weighing strategies
//!   rank each shape once.  A round whose shape did not change costs `O(f)`.

use crate::adversary::{
    AdversaryRole, AdversaryStrategy, ArcLens, CorruptionBudget, CorruptionMode, EdgeSet,
    NoAdversary, PatternId, RoundView,
};
use crate::metrics::Metrics;
use crate::traffic::{Payload, Traffic};
use netgraph::{ArcId, EdgeId, Graph};
use obs::{EventKind, Phase, Tracer};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The next [`PatternId::scope`]: process-wide, so a serial never repeats for
/// any strategy, whichever network it ends up in.
static NEXT_PATTERN_SCOPE: AtomicU64 = AtomicU64::new(1);

/// A [`PatternId::scope`] no round has shown yet.
fn fresh_pattern_scope() -> u64 {
    NEXT_PATTERN_SCOPE.fetch_add(1, Ordering::Relaxed)
}

/// One observation made by an eavesdropper: both directions of one edge in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewEntry {
    /// The round in which the observation was made.
    pub round: usize,
    /// The observed edge.
    pub edge: EdgeId,
    /// Payload flowing from the edge's smaller endpoint to the larger one.
    pub forward: Option<Payload>,
    /// Payload flowing from the larger endpoint to the smaller one.
    pub backward: Option<Payload>,
}

/// Everything the eavesdropper saw during an execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewLog {
    /// Observations in chronological order.
    pub entries: Vec<ViewEntry>,
}

impl ViewLog {
    /// A canonical flattening of the view, suitable for comparing the
    /// distribution of views across executions (perfect security states the
    /// distributions must be identical for any two inputs).
    pub fn canonical(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for e in &self.entries {
            out.push(e.round as u64);
            out.push(e.edge as u64);
            for side in [&e.forward, &e.backward] {
                match side {
                    Some(p) => {
                        out.push(1 + p.len() as u64);
                        out.extend_from_slice(p);
                    }
                    None => out.push(0),
                }
            }
        }
        out
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Which edges the adversary controlled in each executed round, stored
/// flattened (one shared edge vector plus per-round bounds) so recording a
/// round is an amortised append instead of a fresh `Vec` per round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionHistory {
    edges: Vec<EdgeId>,
    /// `bounds[r]` = end offset of round `r` in `edges`.
    bounds: Vec<usize>,
}

impl CorruptionHistory {
    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether no round has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The edges controlled in round `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn round(&self, r: usize) -> &[EdgeId] {
        let start = if r == 0 { 0 } else { self.bounds[r - 1] };
        &self.edges[start..self.bounds[r]]
    }

    /// The most recent round's controlled edges.
    pub fn last(&self) -> Option<&[EdgeId]> {
        (!self.bounds.is_empty()).then(|| self.round(self.bounds.len() - 1))
    }

    /// Iterate the controlled-edge list of every round in order.
    pub fn iter(&self) -> impl Iterator<Item = &[EdgeId]> + '_ {
        (0..self.len()).map(|r| self.round(r))
    }

    fn push_round(&mut self, edges: &[EdgeId]) {
        self.edges.extend_from_slice(edges);
        self.bounds.push(self.edges.len());
    }
}

impl std::ops::Index<usize> for CorruptionHistory {
    type Output = [EdgeId];
    fn index(&self, r: usize) -> &[EdgeId] {
        self.round(r)
    }
}

impl<'a> IntoIterator for &'a CorruptionHistory {
    type Item = &'a [EdgeId];
    type IntoIter = Box<dyn Iterator<Item = &'a [EdgeId]> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Recycled per-round scratch space of the engine (see the module docs).
#[derive(Debug, Default)]
struct RoundBuffers {
    /// Edges the strategy marked this round.
    wanted: EdgeSet,
    /// The budget-clamped controlled set, in request order.
    controlled: Vec<EdgeId>,
    /// Replacement-payload scratch for in-place corruption.
    scratch: Vec<u64>,
    /// Scratch of pattern rounds, lent to the open [`PatternRounds`] scope.
    pattern: PatternScratch,
    /// Deliveries of pattern and held rounds, lent to the open
    /// [`PatternRounds`] or [`HeldRounds`] scope.
    delivered: Deliveries,
}

/// What the adversary delivered in place of the sent messages on the arcs it
/// rewrote in the last round of a [`HeldRounds`] or [`PatternRounds`] scope
/// — at most two per controlled edge, none under an eavesdropper.
#[derive(Debug, Default)]
pub struct Deliveries {
    /// Per rewritten arc, in the order the adversary rewrote them: its words
    /// in `words`, or `None` for a dropped message.
    arcs: Vec<(ArcId, Option<Range<usize>>)>,
    words: Vec<u64>,
}

impl Deliveries {
    fn clear(&mut self) {
        self.arcs.clear();
        self.words.clear();
    }

    fn push(&mut self, arc: ArcId, payload: Option<&[u64]>) {
        let span = payload.map(|words| {
            let start = self.words.len();
            self.words.extend_from_slice(words);
            start..self.words.len()
        });
        self.arcs.push((arc, span));
    }

    /// The rewritten arcs, in the order the adversary rewrote them.
    pub fn arcs(&self) -> impl Iterator<Item = ArcId> + '_ {
        self.arcs.iter().map(|&(arc, _)| arc)
    }

    /// The rewritten arcs with what was delivered on each (`None`: the
    /// message was dropped), in the order the adversary rewrote them.
    pub fn iter(&self) -> impl Iterator<Item = (ArcId, Option<&[u64]>)> + '_ {
        self.arcs
            .iter()
            .map(|(arc, span)| (*arc, span.clone().map(|span| &self.words[span])))
    }

    /// What was delivered on `arc`: `None` if the adversary did not rewrite
    /// it, `Some(None)` if it dropped the message.
    fn get(&self, arc: ArcId) -> Option<Option<&[u64]>> {
        let (_, span) = self.arcs.iter().find(|&&(a, _)| a == arc)?;
        Some(span.clone().map(|span| &self.words[span]))
    }

    fn capacity(&self) -> usize {
        self.arcs.capacity() + self.words.capacity()
    }
}

/// Recycled scratch of a [`PatternRounds`] scope.
#[derive(Debug, Default)]
struct PatternScratch {
    /// Rounds run on each pattern since the scope opened (not yet settled).
    uses: Vec<usize>,
    /// The original words of the controlled arc being looked at.
    words: Vec<u64>,
}

/// A family of recurring rounds of traffic, *described* instead of built:
/// pattern `p ∈ 0..count()` says which arcs carry a message of how many
/// words, and what the words on one arc are in one round.  Between two rounds
/// of a pattern only a single word `tag` (the caller's round counter, say) may
/// change; lengths may not.
///
/// The three accessors must agree: `lens(p)` lists exactly the arcs for which
/// `arc_len(p, ·)` is `Some`, with that length, and `arc_words(p, arc, tag, ·)`
/// appends that many words for every `tag`.
pub trait RoundPatterns {
    /// Whether the caller reads what the adversary delivered on the arcs it
    /// rewrote ([`PatternRounds::delivered`]).  A family that does not
    /// leaves the deliveries empty, and its rounds only weigh each rewrite
    /// ([`CorruptionMode::alters`]) instead of building it.
    const READS_DELIVERIES: bool = false;

    /// Number of patterns in the family.
    fn count(&self) -> usize;

    /// `(arc, payload length)` of every message of pattern `p`, in any order.
    fn lens(&self, p: usize) -> impl Iterator<Item = (ArcId, usize)> + '_;

    /// Length of the message pattern `p` puts on `arc`, `None` for no message.
    fn arc_len(&self, p: usize, arc: ArcId) -> Option<usize>;

    /// Append the words pattern `p` puts on `arc` in the round tagged `tag` to
    /// `out` (which arrives empty) and return `true`, or return `false` when
    /// the arc carries no message.
    fn arc_words(&self, p: usize, arc: ArcId, tag: u64, out: &mut Vec<u64>) -> bool;
}

/// Where a round's outgoing words come from, and where the adversary's
/// rewrite goes — all that distinguishes the kinds of round (module docs).
trait RoundSource {
    /// Count the round and account for its traffic volume.
    fn record(&mut self, metrics: &mut Metrics, bandwidth_words: usize);

    /// The shape of the round's traffic, for the strategy.
    fn view<'a>(&'a self, graph: &Graph) -> RoundView<'a>;

    /// The message the sender put on `arc`.
    fn original(&mut self, arc: ArcId) -> Option<&[u64]>;

    /// Rewrite the message on `arc` under `mode`, drawing from `rng` (with
    /// `scratch` to build the rewrite in, if it is kept), and say whether it
    /// changed.
    fn rewrite(
        &mut self,
        arc: ArcId,
        mode: CorruptionMode,
        rng: &mut ChaCha8Rng,
        scratch: &mut Vec<u64>,
    ) -> bool;
}

/// The rewrite of a round that keeps it: `mode` applied to `original` into
/// `scratch`.  Returns whether a message is present at all, and whether it
/// differs from `original` — the engine's `changed` rule, which
/// [`CorruptionMode::alters`] answers without building the rewrite.
fn rewrite_into(
    mode: CorruptionMode,
    original: Option<&[u64]>,
    rng: &mut ChaCha8Rng,
    scratch: &mut Vec<u64>,
) -> (bool, bool) {
    let present = mode.apply_into(original, rng, scratch);
    let changed = match (present, original) {
        (true, Some(original)) => scratch.as_slice() != original,
        (false, None) => false,
        _ => true,
    };
    (present, changed)
}

/// A dense round: the caller's buffer is read, charged and rewritten.
struct Dense<'a>(&'a mut Traffic);

impl RoundSource for Dense<'_> {
    fn record(&mut self, metrics: &mut Metrics, bandwidth_words: usize) {
        metrics.record_exchange(self.0, bandwidth_words);
    }
    fn view<'a>(&'a self, graph: &Graph) -> RoundView<'a> {
        RoundView::of(graph, self.0)
    }
    fn original(&mut self, arc: ArcId) -> Option<&[u64]> {
        self.0.get_arc(arc)
    }
    fn rewrite(
        &mut self,
        arc: ArcId,
        mode: CorruptionMode,
        rng: &mut ChaCha8Rng,
        scratch: &mut Vec<u64>,
    ) -> bool {
        let (present, changed) = rewrite_into(mode, self.0.get_arc(arc), rng, scratch);
        self.0.set_arc(arc, present.then_some(scratch.as_slice()));
        changed
    }
}

/// A pattern round: one pattern of the scope's family under one tag; the
/// rewrites go to the deliveries if the family reads them.
struct Described<'a, P> {
    patterns: &'a P,
    id: PatternId,
    tag: u64,
    /// This pattern's entry of [`PatternScratch::uses`].
    uses: &'a mut usize,
    words: &'a mut Vec<u64>,
    delivered: &'a mut Deliveries,
}

impl<P: RoundPatterns> ArcLens for Described<'_, P> {
    fn arc_len(&self, arc: ArcId) -> Option<usize> {
        self.patterns.arc_len(self.id.index, arc)
    }
    fn add_edge_words(&self, out: &mut [usize]) {
        for (arc, len) in self.patterns.lens(self.id.index) {
            out[Graph::edge_of(arc)] += len;
        }
    }
}

impl<P: RoundPatterns> RoundSource for Described<'_, P> {
    fn record(&mut self, metrics: &mut Metrics, _bandwidth_words: usize) {
        metrics.rounds += 1;
        *self.uses += 1;
    }
    fn view<'a>(&'a self, graph: &Graph) -> RoundView<'a> {
        RoundView::of_pattern(self, graph.edge_count(), self.id)
    }
    fn original(&mut self, arc: ArcId) -> Option<&[u64]> {
        self.words.clear();
        let present = self
            .patterns
            .arc_words(self.id.index, arc, self.tag, self.words);
        debug_assert_eq!(
            present.then_some(self.words.len()),
            self.patterns.arc_len(self.id.index, arc),
            "pattern {} disagrees with itself on arc {arc}",
            self.id.index
        );
        present.then_some(self.words.as_slice())
    }
    fn rewrite(
        &mut self,
        arc: ArcId,
        mode: CorruptionMode,
        rng: &mut ChaCha8Rng,
        scratch: &mut Vec<u64>,
    ) -> bool {
        if !P::READS_DELIVERIES {
            return mode.alters(self.original(arc), rng);
        }
        let (present, changed) = rewrite_into(mode, self.original(arc), rng, scratch);
        self.delivered
            .push(arc, present.then_some(scratch.as_slice()));
        changed
    }
}

/// A held round: the scope's buffer under its current shape's pattern id,
/// read and never rewritten; rewrites go to the deliveries.
struct Held<'a> {
    traffic: &'a Traffic,
    id: PatternId,
    delivered: &'a mut Deliveries,
}

impl RoundSource for Held<'_> {
    fn record(&mut self, metrics: &mut Metrics, _bandwidth_words: usize) {
        metrics.rounds += 1;
    }
    fn view<'a>(&'a self, graph: &Graph) -> RoundView<'a> {
        RoundView::of_pattern(self.traffic, graph.edge_count(), self.id)
    }
    fn original(&mut self, arc: ArcId) -> Option<&[u64]> {
        self.traffic.get_arc(arc)
    }
    fn rewrite(
        &mut self,
        arc: ArcId,
        mode: CorruptionMode,
        rng: &mut ChaCha8Rng,
        scratch: &mut Vec<u64>,
    ) -> bool {
        let (present, changed) = rewrite_into(mode, self.traffic.get_arc(arc), rng, scratch);
        self.delivered
            .push(arc, present.then_some(scratch.as_slice()));
        changed
    }
}

/// The round-synchronous network simulator.
///
/// The network never mutates its graph.  Compilers that need the graph
/// beside a `&mut Network` take `net.graph().clone()`: a [`Graph`] clone is
/// a reference-count bump that shares the data and the structural memos.
pub struct Network {
    graph: Graph,
    role: AdversaryRole,
    strategy: Box<dyn AdversaryStrategy>,
    budget: CorruptionBudget,
    metrics: Metrics,
    view_log: ViewLog,
    corruption_history: CorruptionHistory,
    budget_spent: usize,
    bandwidth_words: usize,
    corruption_rng: ChaCha8Rng,
    run_seed: u64,
    buffers: RoundBuffers,
    tracer: Tracer,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("role", &self.role)
            .field("strategy", &self.strategy.name())
            .field("budget", &self.budget)
            .field("rounds", &self.metrics.rounds)
            .finish()
    }
}

impl Network {
    /// A fault-free network over `graph`.
    pub fn fault_free(graph: Graph) -> Self {
        Network::new(
            graph,
            AdversaryRole::Byzantine,
            Box::new(NoAdversary),
            CorruptionBudget::None,
            0,
        )
    }

    /// A network with the given adversary configuration.
    ///
    /// `seed` drives the randomness the adversary uses when fabricating
    /// corrupted payloads (the nodes' randomness is separate and never exposed
    /// to the adversary).
    pub fn new(
        graph: Graph,
        role: AdversaryRole,
        strategy: Box<dyn AdversaryStrategy>,
        budget: CorruptionBudget,
        seed: u64,
    ) -> Self {
        let metrics = Metrics::new(&graph);
        Network {
            graph,
            role,
            strategy,
            budget,
            metrics,
            view_log: ViewLog::default(),
            corruption_history: CorruptionHistory::default(),
            budget_spent: 0,
            bandwidth_words: 2,
            corruption_rng: ChaCha8Rng::seed_from_u64(seed ^ 0xAD5E_55A7),
            run_seed: seed,
            buffers: RoundBuffers::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Install a tracer (replacing the default disabled one).  All subsequent
    /// rounds emit `RoundExchange` spans and corruption point events into it.
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The network's tracer (disabled by default — every call on it is a
    /// single-branch no-op).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Remove the tracer for harvesting, leaving a disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// The seed this network was constructed with.  Deterministic executors
    /// (the async runtime's latency/jitter hashing) derive their per-message
    /// randomness from it without touching [`Network::public_coin`]'s RNG —
    /// drawing from that stream would perturb the adversary's corruption
    /// randomness and break lockstep/async parity.
    pub fn run_seed(&self) -> u64 {
        self.run_seed
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The adversary's role (eavesdropper or byzantine).
    pub fn role(&self) -> AdversaryRole {
        self.role
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of communication rounds executed so far.
    pub fn round(&self) -> usize {
        self.metrics.rounds
    }

    /// The eavesdropper's view (empty unless the role is `Eavesdropper`).
    pub fn view_log(&self) -> &ViewLog {
        &self.view_log
    }

    /// Which edges were controlled in each executed round.
    pub fn corruption_history(&self) -> &CorruptionHistory {
        &self.corruption_history
    }

    /// The adversary strategy's display name.
    pub fn adversary_name(&self) -> String {
        self.strategy.name()
    }

    /// Allocated capacity of the engine's recycled buffers — corruption
    /// scratch, budget clamp and the pattern-round scratch — in elements.
    /// Exposed (like [`Traffic::word_capacity`]) so buffer-reuse tests of
    /// round loops in other crates can assert that the steady state stops
    /// allocating.
    pub fn round_buffer_capacity(&self) -> usize {
        let (buffers, pattern) = (&self.buffers, &self.buffers.pattern);
        buffers.scratch.capacity()
            + buffers.controlled.capacity()
            + pattern.uses.capacity()
            + pattern.words.capacity()
            + buffers.delivered.capacity()
    }

    /// Change the number of words per bandwidth-normalised round (default 2).
    #[cfg(test)]
    pub(crate) fn set_bandwidth_words(&mut self, words: usize) {
        self.bandwidth_words = words.max(1);
    }

    /// Execute one communication round: the adversary interposes on `outgoing`
    /// and the returned traffic is what receivers observe.
    ///
    /// Thin by-value wrapper over [`Network::exchange_in_place`] — the buffer
    /// moves in and back out, so no copy is made either way.
    pub fn exchange(&mut self, outgoing: Traffic) -> Traffic {
        let mut traffic = outgoing;
        self.exchange_in_place(&mut traffic);
        traffic
    }

    /// Execute one communication round in place: `traffic` enters as the
    /// round's outgoing messages and leaves as what the receivers observe.
    /// This is the allocation-free engine path — all per-round scratch lives
    /// in recycled buffers owned by the network.
    ///
    /// # Panics
    ///
    /// Panics if `traffic` has fewer arc slots than the graph (build it with
    /// [`Traffic::new`] or size it with [`Traffic::begin_round`]).
    pub fn exchange_in_place(&mut self, traffic: &mut Traffic) {
        assert!(
            traffic.arc_slots() >= self.graph.arc_count(),
            "traffic has {} arc slots but the graph has {} arcs",
            traffic.arc_slots(),
            self.graph.arc_count()
        );
        let mode = self.strategy.corruption_mode();
        self.run_round(&mut Dense(traffic), mode);
    }

    /// Open a scope of **pattern rounds** over `patterns`: rounds whose
    /// outgoing traffic is one of a few recurring, described patterns (see
    /// the module docs).  The scope borrows the network, so nothing can
    /// observe it before the scope ends and settles the rounds' traffic
    /// volume.  The scope's rounds show strategies a fresh
    /// [`PatternId::scope`].
    ///
    /// # Panics
    ///
    /// Panics if a pattern names an arc the graph does not have.
    pub fn pattern_rounds<'a, P: RoundPatterns>(
        &'a mut self,
        patterns: &'a P,
    ) -> PatternRounds<'a, P> {
        let mut scratch = std::mem::take(&mut self.buffers.pattern);
        scratch.uses.clear();
        scratch.uses.resize(patterns.count(), 0);
        let mut delivered = std::mem::take(&mut self.buffers.delivered);
        delivered.clear();
        PatternRounds {
            mode: self.strategy.corruption_mode(),
            net: self,
            patterns,
            scope: fresh_pattern_scope(),
            scratch,
            delivered,
        }
    }

    /// Open a scope of **held rounds** on `held` (see the module docs): the
    /// buffer starts out silent on every arc of the graph, the scope's
    /// [`HeldRounds::set_arc`] and [`HeldRounds::relay`] are the only writes
    /// to it while it is open, and each [`HeldRounds::exchange`] sends what it
    /// holds.  The scope borrows the network, so nothing can observe it before
    /// the scope ends and settles the rounds' traffic volume.
    pub fn held_rounds<'a>(&'a mut self, held: &'a mut Traffic) -> HeldRounds<'a> {
        held.begin_round(&self.graph);
        let mut delivered = std::mem::take(&mut self.buffers.delivered);
        delivered.clear();
        HeldRounds {
            mode: self.strategy.corruption_mode(),
            net: self,
            held,
            id: PatternId {
                scope: fresh_pattern_scope(),
                index: 0,
            },
            uses: 0,
            delivered,
        }
    }

    /// The one round body (module docs): `source` is the round's traffic and
    /// `mode` the strategy's [`CorruptionMode`], read by the caller — once per
    /// scope in a pattern or held scope, which holds the network's only
    /// borrow, so the strategy cannot change under it.
    fn run_round<S: RoundSource>(&mut self, source: &mut S, mode: CorruptionMode) {
        let round = self.metrics.rounds;
        self.tracer.set_time(round as u64);
        self.tracer.span_open(Phase::RoundExchange);
        source.record(&mut self.metrics, self.bandwidth_words);

        // 1. Let the strategy mark edges, then clamp to the budget.
        self.buffers.wanted.reset(self.graph.edge_count());
        self.strategy.mark_edges(
            round,
            &self.graph,
            &source.view(&self.graph),
            &mut self.buffers.wanted,
        );
        let cap = self.budget.round_cap(self.budget_spent);
        let RoundBuffers {
            wanted,
            controlled,
            scratch,
            ..
        } = &mut self.buffers;
        controlled.clear();
        for e in wanted.iter() {
            if controlled.len() >= cap {
                break;
            }
            if e < self.graph.edge_count() && self.budget.allows_edge(e) {
                controlled.push(e);
            }
        }
        if matches!(self.budget, CorruptionBudget::RoundErrorRate { .. }) {
            self.budget_spent += controlled.len();
        }

        // 2. Apply the adversary's role on the controlled edges.
        let mut altered = 0usize;
        for &e in controlled.iter() {
            let (fwd_arc, bwd_arc) = Graph::arcs_of(e);
            self.tracer.point(EventKind::CorruptionApplied { edge: e });
            match self.role {
                AdversaryRole::Eavesdropper => {
                    self.view_log.entries.push(ViewEntry {
                        round,
                        edge: e,
                        forward: source.original(fwd_arc).map(<[u64]>::to_vec),
                        backward: source.original(bwd_arc).map(<[u64]>::to_vec),
                    });
                }
                AdversaryRole::Byzantine => {
                    for arc in [fwd_arc, bwd_arc] {
                        if source.rewrite(arc, mode, &mut self.corruption_rng, scratch) {
                            altered += 1;
                        }
                    }
                }
            }
        }
        self.metrics.record_corruption(controlled, altered);
        self.corruption_history.push_round(controlled);
        self.tracer.span_close(Phase::RoundExchange);
    }

    /// Deterministic per-node private randomness stream: node `v`'s RNG derived
    /// from `run_seed`.  The adversary has no access to these streams.
    pub fn node_rng(run_seed: u64, node: usize) -> ChaCha8Rng {
        let mixed = run_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .rotate_left(17);
        ChaCha8Rng::seed_from_u64(mixed)
    }

    /// Convenience: a fresh uniformly random word from the network-owned
    /// "public coin" (usable where the paper allows shared public randomness
    /// that the adversary may know).
    pub fn public_coin(&mut self) -> u64 {
        self.corruption_rng.gen()
    }
}

/// An open scope of pattern rounds on a [`Network`]
/// ([`Network::pattern_rounds`]).
///
/// Each [`PatternRounds::exchange`] is a full engine round — round counter,
/// trace span, strategy, budget, corruption randomness, history, view log —
/// except that its traffic volume (`messages`, `words`, `bandwidth_rounds`,
/// `edge_messages`) is only *counted* per pattern.  Dropping the scope charges
/// it: all four are sums over rounds, so `times ×` one walk over a pattern's
/// lengths is exactly `times` single-round walks.  The scope holds the
/// network's only borrow, so [`Network::metrics`] is never observable in
/// between.
pub struct PatternRounds<'a, P: RoundPatterns> {
    net: &'a mut Network,
    patterns: &'a P,
    /// The strategy's corruption mode, read when the scope opened.
    mode: CorruptionMode,
    /// This scope's [`PatternId::scope`].
    scope: u64,
    /// The network's pattern scratch, handed back on drop.
    scratch: PatternScratch,
    /// The network's deliveries list, handed back on drop.
    delivered: Deliveries,
}

impl<'a, P: RoundPatterns> PatternRounds<'a, P> {
    /// The family this scope runs.
    pub fn patterns(&self) -> &'a P {
        self.patterns
    }

    /// The graph of the network the scope runs on.
    pub fn graph(&self) -> &Graph {
        &self.net.graph
    }

    /// Execute one round whose outgoing traffic is pattern `pattern` under
    /// `tag`; returns the edges the adversary controlled in it (the round's
    /// entry of the [`CorruptionHistory`]).  The receiver of an arc gets the
    /// pattern's words unless the arc is in [`PatternRounds::delivered`].
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    pub fn exchange(&mut self, pattern: usize, tag: u64) -> &[EdgeId] {
        let PatternScratch { uses, words } = &mut self.scratch;
        self.delivered.clear();
        self.net.run_round(
            &mut Described {
                patterns: self.patterns,
                id: PatternId {
                    scope: self.scope,
                    index: pattern,
                },
                tag,
                uses: &mut uses[pattern],
                words,
                delivered: &mut self.delivered,
            },
            self.mode,
        );
        &self.net.buffers.controlled
    }

    /// The arcs the adversary rewrote in the last round, with what it
    /// delivered on them; always empty for a family that does not set
    /// [`RoundPatterns::READS_DELIVERIES`].
    pub fn delivered(&self) -> &Deliveries {
        &self.delivered
    }
}

impl<P: RoundPatterns> Drop for PatternRounds<'_, P> {
    fn drop(&mut self) {
        for (p, &times) in self.scratch.uses.iter().enumerate() {
            if times > 0 {
                let lens = self.patterns.lens(p);
                self.net
                    .metrics
                    .record_volume(lens, self.net.bandwidth_words, times);
            }
        }
        self.net.buffers.pattern = std::mem::take(&mut self.scratch);
        self.net.buffers.delivered = std::mem::take(&mut self.delivered);
    }
}

/// An open scope of held rounds on a [`Network`] ([`Network::held_rounds`]).
///
/// Each [`HeldRounds::exchange`] is a full engine round on the held buffer —
/// round counter, trace span, strategy, budget, corruption randomness,
/// history, view log — whose traffic volume is only counted while the
/// buffer's *shape* (which arcs carry a message, of what length) stays the
/// same.  The first write that changes the shape after such rounds charges
/// them ([`crate::metrics::Metrics`]'s volume counters are sums over rounds)
/// and opens a fresh [`PatternId`], so a strategy that ranks a shape once per
/// id never sees a stale ranking; dropping the scope charges the rest.
pub struct HeldRounds<'a> {
    net: &'a mut Network,
    held: &'a mut Traffic,
    /// The strategy's corruption mode, read when the scope opened.
    mode: CorruptionMode,
    /// The pattern id strategies see for the current shape.
    id: PatternId,
    /// Rounds run on the current shape, not yet charged.
    uses: usize,
    /// The network's deliveries list, handed back on drop.
    delivered: Deliveries,
}

impl HeldRounds<'_> {
    /// What every sender currently holds: the message each arc carries in
    /// the next round.
    pub fn held(&self) -> &Traffic {
        self.held
    }

    /// Execute one round sending the held messages; returns the edges the
    /// adversary controlled in it (the round's entry of the
    /// [`CorruptionHistory`]).  The held buffer is left as it was; what the
    /// adversary made of the controlled arcs is [`HeldRounds::delivered`].
    pub fn exchange(&mut self) -> &[EdgeId] {
        self.uses += 1;
        self.delivered.clear();
        self.net.run_round(
            &mut Held {
                traffic: self.held,
                id: self.id,
                delivered: &mut self.delivered,
            },
            self.mode,
        );
        &self.net.buffers.controlled
    }

    /// The arcs the adversary rewrote in the last round, with what it
    /// delivered on them.
    pub fn delivered(&self) -> &Deliveries {
        &self.delivered
    }

    /// What the receiver of `arc` got in the last round: the adversary's
    /// delivery if it rewrote the arc, the held message otherwise — so read
    /// it before writing to `arc` (a flood relays its hops last to first).
    pub fn received(&self, arc: ArcId) -> Option<&[u64]> {
        match self.delivered.get(arc) {
            Some(delivery) => delivery,
            None => self.held.get_arc(arc),
        }
    }

    /// Set the message held on `arc` (sent from the next round on).
    ///
    /// # Panics
    ///
    /// Panics if `arc` is out of range.
    pub fn set_arc(&mut self, arc: ArcId, payload: Option<&[u64]>) {
        self.reshape_if(arc, payload.map(<[u64]>::len));
        self.held.set_arc(arc, payload);
    }

    /// The receiver of `from` passes on what it got there in the last round
    /// ([`HeldRounds::received`]): `to` holds it from the next round on.  If
    /// nothing arrived on `from`, `to` keeps what it holds.
    ///
    /// # Panics
    ///
    /// Panics if either arc is out of range.
    pub fn relay(&mut self, from: ArcId, to: ArcId) {
        let Some(len) = self.received(from).map(<[u64]>::len) else {
            return;
        };
        self.reshape_if(to, Some(len));
        let HeldRounds {
            held, delivered, ..
        } = self;
        match delivered.get(from) {
            Some(words) => held.set_arc(to, words),
            None => held.copy_arc(from, to),
        }
    }

    /// Before `arc` changes to a message of length `len` (`None`: no message):
    /// if that changes the shape, charge the rounds run on the old one and
    /// open a fresh pattern id for the new one.
    fn reshape_if(&mut self, arc: ArcId, len: Option<usize>) {
        if self.uses == 0 || self.held.get_arc(arc).map(<[u64]>::len) == len {
            return;
        }
        self.settle();
        self.id = PatternId {
            scope: fresh_pattern_scope(),
            index: 0,
        };
    }

    /// Charge the traffic volume of the rounds run on the current shape.
    fn settle(&mut self) {
        let net = &mut *self.net;
        net.metrics
            .record_volume(self.held.iter_lens(), net.bandwidth_words, self.uses);
        self.uses = 0;
    }
}

impl Drop for HeldRounds<'_> {
    fn drop(&mut self) {
        if self.uses > 0 {
            self.settle();
        }
        self.net.buffers.delivered = std::mem::take(&mut self.delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        AdaptiveHeaviest, BurstAdversary, CorruptionMode, EclipseNode, FixedEdges, GreedyHeaviest,
        RandomMobile, ScheduledEdges, SweepMobile, SynthesizedSchedule,
    };
    use crate::reference::{LegacyTraffic, ReferenceNetwork};
    use netgraph::generators;

    fn full_traffic(g: &Graph, value: u64) -> Traffic {
        let mut t = Traffic::new(g);
        for e in g.edges() {
            t.send(g, e.u, e.v, vec![value]);
            t.send(g, e.v, e.u, vec![value + 1]);
        }
        t
    }

    #[test]
    fn fault_free_delivers_verbatim() {
        let g = generators::cycle(5);
        let mut net = Network::fault_free(g.clone());
        let t = full_traffic(&g, 3);
        let out = net.exchange(t.clone());
        assert!(out.agrees_with(&t));
        assert_eq!(net.round(), 1);
        assert_eq!(net.metrics().messages, 10);
        assert!(net.corruption_history()[0].is_empty());
    }

    #[test]
    fn byzantine_static_corrupts_only_fixed_edges() {
        let g = generators::cycle(5);
        let target = g.edge_between(0, 1).unwrap();
        let strategy = FixedEdges::new(vec![target]).with_mode(CorruptionMode::Constant(77));
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(strategy),
            CorruptionBudget::Static(vec![target]),
            0,
        );
        let t = full_traffic(&g, 3);
        let out = net.exchange(t.clone());
        assert_eq!(out.get(&g, 0, 1), Some(&[77u64][..]));
        assert_eq!(out.get(&g, 1, 0), Some(&[77u64][..]));
        // Every other edge is untouched.
        for e in g.edges() {
            if g.edge_between(e.u, e.v).unwrap() != target {
                assert_eq!(out.get(&g, e.u, e.v), t.get(&g, e.u, e.v));
            }
        }
        assert_eq!(net.metrics().corrupted_edge_rounds, 1);
        assert_eq!(net.metrics().corrupted_messages, 2);
    }

    #[test]
    fn mobile_budget_clamps_requests() {
        let g = generators::complete(6);
        // Strategy wants 10 edges, budget allows only 2.
        let strategy = RandomMobile::new(10, 7);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(strategy),
            CorruptionBudget::Mobile { f: 2 },
            1,
        );
        for _ in 0..5 {
            let _ = net.exchange(full_traffic(&g, 1));
        }
        for round_edges in net.corruption_history() {
            assert!(round_edges.len() <= 2);
        }
        assert_eq!(net.metrics().corrupted_edge_rounds, 10);
        let edge_rounds: usize = net.corruption_history().iter().map(<[_]>::len).sum();
        assert_eq!(edge_rounds, 10);
    }

    #[test]
    fn round_error_rate_budget_is_exhausted() {
        let g = generators::complete(5);
        let strategy = RandomMobile::new(5, 3);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(strategy),
            CorruptionBudget::RoundErrorRate { total: 7 },
            2,
        );
        for _ in 0..10 {
            let _ = net.exchange(full_traffic(&g, 1));
        }
        assert_eq!(net.metrics().corrupted_edge_rounds, 7);
        // Later rounds must be clean.
        assert!(net.corruption_history()[9].is_empty() || net.metrics().corrupted_edge_rounds == 7);
    }

    #[test]
    fn eavesdropper_records_but_does_not_modify() {
        let g = generators::path(3);
        let e01 = g.edge_between(0, 1).unwrap();
        let strategy = FixedEdges::new(vec![e01]);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Eavesdropper,
            Box::new(strategy),
            CorruptionBudget::Static(vec![e01]),
            0,
        );
        let t = full_traffic(&g, 9);
        let out = net.exchange(t.clone());
        assert!(out.agrees_with(&t), "eavesdropper must not alter traffic");
        assert_eq!(net.view_log().len(), 1);
        let entry = &net.view_log().entries[0];
        assert_eq!(entry.edge, e01);
        assert_eq!(entry.forward, Some(vec![9]));
        assert_eq!(entry.backward, Some(vec![10]));
        assert!(!net.view_log().canonical().is_empty());
    }

    #[test]
    fn node_rngs_are_distinct_and_deterministic() {
        let mut a = Network::node_rng(7, 0);
        let mut a2 = Network::node_rng(7, 0);
        let mut b = Network::node_rng(7, 1);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let xs2: Vec<u64> = (0..4).map(|_| a2.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_eq!(xs, xs2);
        assert_ne!(xs, ys);
    }

    #[test]
    fn corruption_history_flattening_round_trips() {
        let mut h = CorruptionHistory::default();
        h.push_round(&[3, 1]);
        h.push_round(&[]);
        h.push_round(&[7]);
        assert_eq!(h.len(), 3);
        assert_eq!(&h[0], &[3, 1][..]);
        assert!(h[1].is_empty());
        assert_eq!(h.last(), Some(&[7usize][..]));
        let rounds: Vec<&[EdgeId]> = h.iter().collect();
        assert_eq!(rounds.len(), 3);
    }

    /// A word of an `alters` case: often one the rewrite could produce
    /// (`Constant`'s value, a flipped low bit), sometimes anything.
    fn word() -> impl proptest::Strategy<Value = u64> {
        use proptest::Strategy;
        (0usize..4, proptest::any::<u64>()).prop_map(|(pick, any)| [0, 1, 3, any][pick])
    }

    /// An `alters` case's original message: absent one time in five,
    /// otherwise zero to three words.
    fn message() -> impl proptest::Strategy<Value = Option<Vec<u64>>> {
        use proptest::Strategy;
        (0usize..5, proptest::prop::collection::vec(word(), 0..4))
            .prop_map(|(pick, words)| (pick > 0).then_some(words))
    }

    proptest::proptest! {
        // `CorruptionMode::alters` is `apply_into` followed by the engine's
        // `changed` rule, and leaves the RNG where `apply_into` does.  With
        // `echo` the original is the RNG's next words, so `ReplaceRandom` can
        // also come out unchanged.
        #[test]
        fn alters_is_apply_into_then_the_changed_rule(
            mode_index in 0usize..4,
            constant in word(),
            original in message(),
            echo in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            let mode = [
                CorruptionMode::ReplaceRandom,
                CorruptionMode::FlipLowBit,
                CorruptionMode::Drop,
                CorruptionMode::Constant(constant),
            ][mode_index];
            let mut built = ChaCha8Rng::seed_from_u64(seed);
            let mut weighed = built.clone();
            let original = match original {
                Some(words) if echo => {
                    let mut next = built.clone();
                    Some(words.iter().map(|_| next.gen::<u64>()).collect::<Vec<u64>>())
                }
                original => original,
            };
            let mut scratch = vec![5; 4];
            let (_, changed) = rewrite_into(mode, original.as_deref(), &mut built, &mut scratch);
            proptest::prop_assert_eq!(
                mode.alters(original.as_deref(), &mut weighed),
                changed,
                "{:?} on {:?}", mode, original
            );
            proptest::prop_assert_eq!(built.gen::<u64>(), weighed.gen::<u64>(), "rng drifted");
        }
    }

    #[test]
    fn steady_state_rounds_do_not_grow_the_buffers() {
        // The zero-allocation claim of the round engine: after warm-up, the
        // traffic arena, the adversary's scratch and the budget-clamp buffers
        // all stop growing — per-round allocation count is constant (zero) in
        // the round count.
        let g = generators::complete(10);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(3, 5).with_mode(CorruptionMode::ReplaceRandom)),
            CorruptionBudget::Mobile { f: 3 },
            5,
        );
        let mut t = Traffic::new(&g);
        let run_round = |net: &mut Network, t: &mut Traffic| {
            t.begin_round(&g);
            for e in g.edges() {
                t.send(&g, e.u, e.v, [e.u as u64, e.v as u64]);
                t.send(&g, e.v, e.u, [e.v as u64, e.u as u64]);
            }
            net.exchange_in_place(t);
        };
        for _ in 0..20 {
            run_round(&mut net, &mut t);
        }
        let traffic_cap = t.word_capacity();
        let scratch_cap = net.buffers.scratch.capacity();
        let controlled_cap = net.buffers.controlled.capacity();
        for _ in 0..500 {
            run_round(&mut net, &mut t);
        }
        assert_eq!(t.word_capacity(), traffic_cap, "traffic arena regrew");
        assert_eq!(
            net.buffers.scratch.capacity(),
            scratch_cap,
            "corruption scratch regrew"
        );
        assert_eq!(
            net.buffers.controlled.capacity(),
            controlled_cap,
            "controlled buffer regrew"
        );
    }

    /// Two recurring rounds over a graph with every kind of arc: edge `e`
    /// carries, by `e mod 3`, a 3-word payload one way and an
    /// empty-but-present one back / one word one way and nothing back /
    /// nothing at all (pattern 0); and one small word on every arc, small
    /// enough to coincide with `Constant(3)` in some rounds (pattern 1).
    /// A non-zero `shift` moves pattern 0's classes to `(e + shift) mod 3`: a
    /// different family of the same size.
    struct TestPatterns {
        arcs: usize,
        shift: usize,
    }

    impl TestPatterns {
        fn on(g: &Graph, shift: usize) -> Self {
            TestPatterns {
                arcs: g.arc_count(),
                shift,
            }
        }

        fn words(&self, p: usize, arc: ArcId, tag: u64) -> Option<Vec<u64>> {
            let e = Graph::edge_of(arc);
            let forward = arc == Graph::arcs_of(e).0;
            match (p, (e + self.shift) % 3, forward) {
                (0, 0, true) => Some(vec![e as u64, tag, 7]),
                (0, 0, false) => Some(vec![]),
                (0, 1, true) => Some(vec![tag]),
                (0, _, _) => None,
                _ => Some(vec![(tag + arc as u64) % 5]),
            }
        }

        /// The round as a sender would have built it.
        fn materialise(&self, g: &Graph, p: usize, tag: u64) -> Traffic {
            let mut t = Traffic::new(g);
            for arc in 0..self.arcs {
                t.set_arc(arc, self.words(p, arc, tag).as_deref());
            }
            t
        }
    }

    impl RoundPatterns for TestPatterns {
        fn count(&self) -> usize {
            2
        }
        fn lens(&self, p: usize) -> impl Iterator<Item = (ArcId, usize)> + '_ {
            (0..self.arcs).filter_map(move |arc| Some((arc, self.arc_len(p, arc)?)))
        }
        fn arc_len(&self, p: usize, arc: ArcId) -> Option<usize> {
            self.words(p, arc, 0).map(|w| w.len())
        }
        fn arc_words(&self, p: usize, arc: ArcId, tag: u64, out: &mut Vec<u64>) -> bool {
            self.words(p, arc, tag).map(|w| out.extend(w)).is_some()
        }
    }

    /// [`TestPatterns`] as a family that reads its deliveries.
    struct Reading<'a>(&'a TestPatterns);

    impl RoundPatterns for Reading<'_> {
        const READS_DELIVERIES: bool = true;
        fn count(&self) -> usize {
            self.0.count()
        }
        fn lens(&self, p: usize) -> impl Iterator<Item = (ArcId, usize)> + '_ {
            self.0.lens(p)
        }
        fn arc_len(&self, p: usize, arc: ArcId) -> Option<usize> {
            self.0.arc_len(p, arc)
        }
        fn arc_words(&self, p: usize, arc: ArcId, tag: u64, out: &mut Vec<u64>) -> bool {
            self.0.arc_words(p, arc, tag, out)
        }
    }

    /// Rounds `first .. first + 3` of the engine differential below: pattern
    /// rounds in one scope over `family` (which describes `patterns`) on the
    /// first network, the same rounds dense on the second and on the
    /// reference.  The same edges are controlled, and what the receivers get
    /// — the pattern's words, but the deliveries on the arcs the adversary
    /// rewrote — is the dense round's traffic, or there are no deliveries
    /// when the family reads none.
    fn three_pattern_rounds<P: RoundPatterns>(
        family: &P,
        patterns: &TestPatterns,
        first: usize,
        (mixed, dense, reference): (&mut Network, &mut Network, &mut ReferenceNetwork),
        name: &str,
    ) {
        let g = dense.graph().clone();
        let mut scope = mixed.pattern_rounds(family);
        for round in first..first + 3 {
            let (p, tag) = (round % 2, round as u64 / 2);
            let controlled = scope.exchange(p, tag).to_vec();
            let mut t = patterns.materialise(&g, p, tag);
            reference.exchange(LegacyTraffic::from_traffic(&g, &t));
            dense.exchange_in_place(&mut t);
            assert_eq!(
                Some(&controlled[..]),
                dense.corruption_history().last(),
                "{name} round {round}"
            );
            let mut received = patterns.materialise(&g, p, tag);
            for (arc, words) in scope.delivered().iter() {
                received.set_arc(arc, words);
            }
            if P::READS_DELIVERIES {
                assert_eq!(received, t, "{name} round {round}");
            } else {
                assert_eq!(scope.delivered().arcs().count(), 0, "{name} round {round}");
            }
        }
    }

    /// All ten strategies of `adversary.rs`, in `mode` where they take one.
    fn all_strategies(g: &Graph, mode: CorruptionMode) -> Vec<Box<dyn AdversaryStrategy>> {
        let m = g.edge_count();
        let schedule = vec![vec![1, m - 1], vec![], vec![0, 2, 4], vec![m / 2]];
        vec![
            Box::new(NoAdversary),
            Box::new(FixedEdges::new(vec![0, 3, m - 1]).with_mode(mode)),
            Box::new(RandomMobile::new(2, 77).with_mode(mode)),
            Box::new(SweepMobile::new(2).with_mode(mode)),
            Box::new(GreedyHeaviest::new(2).with_mode(mode)),
            Box::new(AdaptiveHeaviest::new(2).with_mode(mode)),
            Box::new(EclipseNode::new(1, 2).with_mode(mode)),
            Box::new(BurstAdversary::new(1, 2, 3, 78).with_mode(mode)),
            Box::new(ScheduledEdges::new(schedule.clone())),
            Box::new(SynthesizedSchedule::new(schedule).with_mode(mode)),
        ]
    }

    /// The engine-level differential: a run that mixes pattern rounds with
    /// ordinary dense rounds against the same rounds all dense (carrying the
    /// materialised traffic) — and against the kept [`ReferenceNetwork`] —
    /// must leave every observable of the network identical.
    #[test]
    fn pattern_rounds_equal_dense_rounds_carrying_the_materialised_traffic() {
        let g = generators::complete(6);
        let m = g.edge_count();
        let patterns = TestPatterns::on(&g, 0);
        let modes = [
            CorruptionMode::ReplaceRandom,
            CorruptionMode::FlipLowBit,
            CorruptionMode::Drop,
            CorruptionMode::Constant(3),
        ];
        let budgets = [
            CorruptionBudget::Mobile { f: 2 },
            // Runs dry a few rounds in, for every strategy that acts at all.
            CorruptionBudget::RoundErrorRate { total: 7 },
            CorruptionBudget::Static(vec![0, 3, 4, m - 1]),
            CorruptionBudget::None,
        ];
        // An ordinary round between the pattern rounds: loads unlike either
        // pattern, so `AdaptiveHeaviest` carries them across the two kinds.
        let ordinary = |round: usize| {
            let mut t = Traffic::new(&g);
            for e in g
                .edges()
                .iter()
                .filter(|e| (e.u + e.v + round).is_multiple_of(2))
            {
                t.send(&g, e.u, e.v, vec![round as u64; 1 + e.v % 4]);
            }
            t
        };
        let mut acted = 0;
        for role in [AdversaryRole::Byzantine, AdversaryRole::Eavesdropper] {
            for mode in modes {
                for budget in &budgets {
                    for bandwidth_words in [1, 2, 3] {
                        let strategies = || all_strategies(&g, mode).into_iter();
                        for ((s0, s1), s2) in strategies().zip(strategies()).zip(strategies()) {
                            let name = format!(
                                "{role:?} {mode:?} {budget:?} bw={bandwidth_words} {}",
                                s0.name()
                            );
                            let [mut mixed, mut dense] = [s0, s1].map(|strategy| {
                                let mut net =
                                    Network::new(g.clone(), role, strategy, budget.clone(), 31);
                                net.set_bandwidth_words(bandwidth_words);
                                net.install_tracer(obs::TraceSpec::ring().build_tracer());
                                net
                            });
                            let mut reference =
                                ReferenceNetwork::new(g.clone(), role, s2, budget.clone(), 31);
                            // Rounds 3, 7, 11 are ordinary; the others are
                            // pattern rounds in scopes of three, the middle
                            // scope's family reading no deliveries.
                            for first in [0, 4, 8] {
                                let rounds = (&mut mixed, &mut dense, &mut reference);
                                if first == 4 {
                                    three_pattern_rounds(
                                        &patterns, &patterns, first, rounds, &name,
                                    );
                                } else {
                                    let reading = Reading(&patterns);
                                    three_pattern_rounds(&reading, &patterns, first, rounds, &name);
                                }
                                let mut t = ordinary(first + 3);
                                reference.exchange(LegacyTraffic::from_traffic(&g, &t));
                                let delivered = mixed.exchange(t.clone());
                                dense.exchange_in_place(&mut t);
                                assert_eq!(delivered, t, "{name} ordinary round");
                            }
                            assert_eq!(mixed.metrics(), dense.metrics(), "{name}");
                            assert_eq!(
                                mixed.corruption_history(),
                                dense.corruption_history(),
                                "{name}"
                            );
                            assert_eq!(mixed.view_log(), dense.view_log(), "{name}");
                            assert_eq!(mixed.public_coin(), dense.public_coin(), "{name}");
                            let [mixed_trace, dense_trace] =
                                [&mut mixed, &mut dense].map(|net| net.take_tracer().finish());
                            assert!(mixed_trace.events.len() >= 2 * 12, "{name}");
                            assert_eq!(
                                format!("{mixed_trace:?}"),
                                format!("{dense_trace:?}"),
                                "{name}"
                            );
                            // The seed engine charges at its fixed bandwidth.
                            if bandwidth_words == 2 {
                                assert_eq!(mixed.metrics(), &reference.metrics, "{name}");
                            }
                            assert_eq!(mixed.view_log(), &reference.view_log, "{name}");
                            let history: Vec<&[EdgeId]> =
                                mixed.corruption_history().iter().collect();
                            assert_eq!(history, reference.corruption_history, "{name}");
                            acted += usize::from(mixed.metrics().corrupted_edge_rounds > 0);
                        }
                    }
                }
            }
        }
        // Every strategy but `NoAdversary`, under every budget but `None`.
        assert_eq!(acted, 2 * 4 * 3 * 3 * 9);
    }

    #[test]
    fn a_described_round_shows_the_view_of_its_materialised_traffic() {
        let g = generators::complete(5);
        let patterns = TestPatterns::on(&g, 0);
        let mut net = Network::fault_free(g.clone());
        let mut scope = net.pattern_rounds(&patterns);
        for p in 0..patterns.count() {
            let id = PatternId {
                scope: scope.scope,
                index: p,
            };
            let described = Described {
                patterns: &patterns,
                id,
                tag: 4,
                uses: &mut scope.scratch.uses[p],
                words: &mut scope.scratch.words,
                delivered: &mut scope.delivered,
            };
            let built = patterns.materialise(&g, p, 4);
            let (got, want) = (described.view(&g), RoundView::of(&g, &built));
            for arc in 0..g.arc_count() {
                assert_eq!(got.arc_len(arc), want.arc_len(arc), "pattern {p} arc {arc}");
            }
            let (mut got_words, mut want_words) = (vec![9; 3], Vec::new());
            got.edge_words_into(&mut got_words);
            want.edge_words_into(&mut want_words);
            assert_eq!(got_words, want_words, "pattern {p}");
            assert_eq!(want_words.len(), g.edge_count());
            assert_eq!((got.pattern(), want.pattern()), (Some(id), None));
        }
    }

    #[test]
    fn a_pattern_scope_settles_its_volume_on_drop() {
        let g = generators::complete(5);
        let patterns = TestPatterns::on(&g, 0);
        for bandwidth_words in [1, 2, 3] {
            let mut net = Network::fault_free(g.clone());
            net.set_bandwidth_words(bandwidth_words);
            // The oracle: one `record_exchange` per round (itself pinned to
            // the two-pass fold in `metrics.rs`).
            let mut want = Metrics::new(&g);
            let mut scope = net.pattern_rounds(&patterns);
            for (p, times) in [(0, 5), (1, 3)] {
                for tag in 0..times {
                    scope.exchange(p, tag);
                    want.record_exchange(&patterns.materialise(&g, p, tag), bandwidth_words);
                }
            }
            // Inside the scope only the round counter has moved …
            assert_eq!(scope.net.metrics.rounds, 8);
            assert_eq!(scope.net.metrics.messages, 0);
            assert_eq!(scope.net.metrics.bandwidth_rounds, 0);
            drop(scope);
            // … and the drop charges all eight rounds at once.
            assert_eq!(net.metrics(), &want, "bandwidth_words = {bandwidth_words}");
            assert!(net.metrics().words > 0);
            // A scope that runs nothing charges nothing.
            drop(net.pattern_rounds(&patterns));
            assert_eq!(net.metrics(), &want);
        }
    }

    /// The weighing strategies rank a pattern once per scope.  Scopes over
    /// two *different* families of the same size, back to back with dense
    /// rounds in between, must act as the same rounds all dense: a ranking
    /// memoised by pattern index alone would replay the first family's
    /// heaviest edges in the second family's rounds.
    #[test]
    fn weighing_strategies_rank_each_pattern_scope_afresh() {
        let g = generators::complete(6);
        let families = [TestPatterns::on(&g, 0), TestPatterns::on(&g, 1)];
        let ordinary = |round: usize| {
            let mut t = Traffic::new(&g);
            for e in g.edges().iter().filter(|e| (e.u + round).is_multiple_of(3)) {
                t.send(&g, e.v, e.u, vec![round as u64; 1 + e.v % 3]);
            }
            t
        };
        type Make = fn(usize) -> Box<dyn AdversaryStrategy>;
        let strategies: [Make; 2] = [
            |f| Box::new(GreedyHeaviest::new(f)),
            |f| Box::new(AdaptiveHeaviest::new(f)),
        ];
        for f in [1, 2, 3] {
            for budget in [f - 1, f + 1] {
                for make in strategies {
                    let [mut mixed, mut dense] = [make(f), make(f)].map(|strategy| {
                        let budget = CorruptionBudget::Mobile { f: budget };
                        Network::new(g.clone(), AdversaryRole::Byzantine, strategy, budget, 5)
                    });
                    let name = format!("{} budget {budget}", mixed.adversary_name());
                    let mut round = 0;
                    for family in [&families[0], &families[1], &families[0], &families[1]] {
                        let mut scope = mixed.pattern_rounds(family);
                        for _ in 0..4 {
                            let (p, tag) = (round % 2, round as u64);
                            let controlled = scope.exchange(p, tag).to_vec();
                            dense.exchange_in_place(&mut family.materialise(&g, p, tag));
                            assert_eq!(
                                Some(&controlled[..]),
                                dense.corruption_history().last(),
                                "{name} round {round}"
                            );
                            round += 1;
                        }
                        drop(scope);
                        let t = ordinary(round);
                        assert_eq!(mixed.exchange(t.clone()), dense.exchange(t), "{name}");
                        round += 1;
                    }
                    assert_eq!(mixed.metrics(), dense.metrics(), "{name}");
                    assert_eq!(
                        mixed.corruption_history(),
                        dense.corruption_history(),
                        "{name}"
                    );
                    assert_eq!(mixed.public_coin(), dense.public_coin(), "{name}");
                }
            }
        }
    }

    /// One write of [`held_script`].
    enum Write {
        Relay(ArcId, ArcId),
        Set(ArcId, Option<Vec<u64>>),
    }

    /// The writes before round `round` of a held scope on a graph of `arcs`
    /// arcs.  Relays come first and read only forward arcs, which no write
    /// of the round touched yet; they move what was delivered onto the
    /// backward arc of the same edge.  Then sets that add arcs, lengthen,
    /// shorten or drop them, or rewrite them at the same length — so the
    /// shape grows and changes mid-scope, and sometimes only the words do.
    fn held_script(arcs: usize, round: usize) -> Vec<Write> {
        let mut writes = Vec::new();
        if round == 0 {
            for e in (0..arcs / 2).step_by(2) {
                writes.push(Write::Set(2 * e, Some(vec![e as u64; 1 + e % 3])));
            }
        } else {
            for e in (round % 3..arcs / 2).step_by(3) {
                writes.push(Write::Relay(2 * e, 2 * e + 1));
            }
        }
        for k in 0..3 {
            let x = (round * 7 + k * 13 + 5) * 2_654_435_761 % 1_000_003;
            let arc = x % arcs;
            let words = match x / arcs % 6 {
                0 => None,
                1 => Some(vec![]),
                // Same length as the relayed ones, new words.
                2 => Some(vec![round as u64; 1 + Graph::edge_of(arc) % 3]),
                n => Some(vec![(round + k) as u64; n - 2]),
            };
            writes.push(Write::Set(arc, words));
        }
        writes
    }

    /// The held-round differential: a run that mixes held scopes with
    /// ordinary dense rounds against the same rounds all dense — each round
    /// the mirrored held buffer copied and exchanged in place, a relay reading
    /// the exchanged copy — must leave every observable of the network
    /// identical: what every receiver got, `Metrics`, `CorruptionHistory`,
    /// `ViewLog`, the event streams and the next public coin.  The script's
    /// shapes grow mid-scope, so a write that does not settle the rounds of
    /// the old shape, or keeps its `PatternId`, is a diff here.
    #[test]
    fn held_rounds_equal_dense_rounds() {
        let g = generators::complete(6);
        let (m, arcs) = (g.edge_count(), g.arc_count());
        let modes = [
            CorruptionMode::ReplaceRandom,
            CorruptionMode::FlipLowBit,
            CorruptionMode::Drop,
            CorruptionMode::Constant(3),
        ];
        let budgets = [
            CorruptionBudget::Mobile { f: 2 },
            CorruptionBudget::RoundErrorRate { total: 7 },
            CorruptionBudget::Static(vec![0, 3, 4, m - 1]),
            CorruptionBudget::None,
        ];
        let ordinary = |round: usize| {
            let mut t = Traffic::new(&g);
            for e in g.edges().iter().filter(|e| (e.v + round).is_multiple_of(3)) {
                t.send(&g, e.u, e.v, vec![round as u64; 1 + e.u % 4]);
            }
            t
        };
        let mut acted = 0;
        for role in [AdversaryRole::Byzantine, AdversaryRole::Eavesdropper] {
            for mode in modes {
                for budget in &budgets {
                    for bandwidth_words in [1, 2, 3] {
                        let strategies = || all_strategies(&g, mode).into_iter();
                        for (s0, s1) in strategies().zip(strategies()) {
                            let name = format!(
                                "{role:?} {mode:?} {budget:?} bw={bandwidth_words} {}",
                                s0.name()
                            );
                            let [mut mixed, mut dense] = [s0, s1].map(|strategy| {
                                let mut net =
                                    Network::new(g.clone(), role, strategy, budget.clone(), 31);
                                net.set_bandwidth_words(bandwidth_words);
                                net.install_tracer(obs::TraceSpec::ring().build_tracer());
                                net
                            });
                            let (mut held, mut mirror) = (Traffic::new(&g), Traffic::new(&g));
                            // Rounds 5, 11, 17 are ordinary; the others are
                            // held rounds in scopes of five.
                            for first in [0, 6, 12] {
                                let mut scope = mixed.held_rounds(&mut held);
                                mirror.begin_round(&g);
                                let mut wire = mirror.clone();
                                for round in 0..5 {
                                    for write in held_script(arcs, round) {
                                        match write {
                                            Write::Relay(from, to) => {
                                                scope.relay(from, to);
                                                if let Some(words) = wire.get_arc(from) {
                                                    mirror.set_arc(to, Some(words));
                                                }
                                            }
                                            Write::Set(arc, words) => {
                                                scope.set_arc(arc, words.as_deref());
                                                mirror.set_arc(arc, words.as_deref());
                                            }
                                        }
                                    }
                                    assert_eq!(scope.held(), &mirror, "{name} round {round}");
                                    let controlled = scope.exchange().to_vec();
                                    wire.clone_from(&mirror);
                                    dense.exchange_in_place(&mut wire);
                                    let at = format!("{name} round {}", first + round);
                                    assert_eq!(
                                        Some(&controlled[..]),
                                        dense.corruption_history().last(),
                                        "{at}"
                                    );
                                    for arc in 0..arcs {
                                        assert_eq!(
                                            scope.received(arc),
                                            wire.get_arc(arc),
                                            "{at} arc {arc}"
                                        );
                                    }
                                    // The engine never rewrites the buffer.
                                    assert_eq!(scope.held(), &mirror, "{at}");
                                }
                                drop(scope);
                                let mut t = ordinary(first + 5);
                                let delivered = mixed.exchange(t.clone());
                                dense.exchange_in_place(&mut t);
                                assert_eq!(delivered, t, "{name} ordinary round");
                            }
                            assert_eq!(mixed.metrics(), dense.metrics(), "{name}");
                            assert_eq!(
                                mixed.corruption_history(),
                                dense.corruption_history(),
                                "{name}"
                            );
                            assert_eq!(mixed.view_log(), dense.view_log(), "{name}");
                            assert_eq!(mixed.public_coin(), dense.public_coin(), "{name}");
                            let [mixed_trace, dense_trace] =
                                [&mut mixed, &mut dense].map(|net| net.take_tracer().finish());
                            assert!(mixed_trace.events.len() >= 2 * 18, "{name}");
                            assert_eq!(
                                format!("{mixed_trace:?}"),
                                format!("{dense_trace:?}"),
                                "{name}"
                            );
                            acted += usize::from(mixed.metrics().corrupted_edge_rounds > 0);
                        }
                    }
                }
            }
        }
        // Every strategy but `NoAdversary`, under every budget but `None`.
        assert_eq!(acted, 2 * 4 * 3 * 3 * 9);
    }

    #[test]
    fn a_held_scope_charges_each_shape_at_its_own_volume() {
        let g = generators::complete(5);
        let mut held = Traffic::new(&g);
        let mut net = Network::fault_free(g.clone());
        net.set_bandwidth_words(1);
        let mut scope = net.held_rounds(&mut held);
        scope.set_arc(0, Some(&[1, 2, 3]));
        scope.exchange();
        scope.exchange();
        // Same length, new words: still the same shape.
        scope.set_arc(0, Some(&[4, 5, 6]));
        let id = scope.id;
        scope.exchange();
        assert_eq!(scope.id, id);
        assert_eq!(scope.net.metrics.words, 0, "nothing charged yet");
        // A new arc: the three rounds so far are charged at three words each.
        scope.relay(0, 1);
        assert_eq!(scope.net.metrics.words, 9);
        assert_ne!(scope.id, id, "a new shape is a new pattern");
        scope.exchange();
        drop(scope);
        let m = net.metrics();
        assert_eq!((m.rounds, m.messages, m.words), (4, 5, 15));
        assert_eq!(m.bandwidth_rounds, 4 * 3);
        assert_eq!(held.get_arc(1), Some(&[4u64, 5, 6][..]));
    }
}
