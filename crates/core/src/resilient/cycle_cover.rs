//! The fault-tolerant-cycle-cover compiler (Theorems 1.4 / 5.5).
//!
//! For graphs that are only `(2f+1)`-edge-connected (too sparse for the
//! tree-packing machinery) and small `f`, every round of the protected
//! algorithm is simulated by flooding each message over the `2f+1`
//! edge-disjoint paths of its edge's path system, for a window of
//! `2·f·dilation + dilation + 1` rounds, and taking the majority at the
//! receiver (Lemma 5.6).  Path systems are processed colour class by colour
//! class using the good cycle colouring of Lemma 5.2, so that systems handled
//! together never share an edge.
//!
//! # The flood plan
//!
//! Cover, colouring, dilation and congestion are pure functions of
//! `(graph, f)`, so [`CycleCoverCompiler::new`] folds them once into a flood
//! plan of flat arrays: per colour class the two directed path systems of each
//! of its edges, and every path as the sequence of *arcs* it travels from the
//! message's sender to its receiver.  Within a class each arc then belongs to
//! at most one hop of one path of one flooded message — the plan asserts it —
//! so "what every relay currently holds" is itself a [`Traffic`] (`held`).
//! The cover and the colouring map are dropped once the plan is built.
//!
//! # Flood rounds over the held traffic
//!
//! A flood round sends exactly what the relays hold, so it is a *held* round
//! of the network ([`Network::held_rounds`]): the engine runs its one round
//! body on `held` without copying or rewriting it and reports the `≤ 2f` arcs
//! the adversary rewrote; every write to `held` goes through the scope, which
//! charges the traffic volume whenever the set of carrying arcs changes.  After
//! a path's first hops have filled, it changes only where the adversary
//! struck, so the flood keeps a front and a clean flag per path: a clean path
//! the adversary did not touch advances its front in `O(1)`, a complete clean
//! path is parked and its arrivals (one copy of the sender's value per round)
//! are added in bulk, and only a path with a rewritten arc — or a foreign
//! value still on it — gets the hop-by-hop walk.  No path, payload or graph is
//! allocated or searched in that loop.

use congest_sim::network::Network;
use congest_sim::traffic::{Output, Traffic};
use congest_sim::CongestAlgorithm;
use netgraph::cycle_cover::FtCycleCover;
use netgraph::{ArcId, EdgeId, Graph, NodeId};
use std::collections::BTreeMap;
use std::ops::Range;

/// Report of a cycle-cover-compiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleCoverReport {
    /// Paths per edge (`2f + 1`).
    pub paths_per_edge: usize,
    /// Dilation of the cover.
    pub dilation: usize,
    /// Congestion of the cover.
    pub congestion: usize,
    /// Number of colour classes processed per simulated round.
    pub colors: usize,
    /// Total network rounds consumed.
    pub network_rounds: usize,
    /// Rounds of the protected algorithm.
    pub payload_rounds: usize,
}

/// One direction of a covered edge in the [`FloodPlan`]: the message sent on
/// `arc` floods over `paths`.
#[derive(Debug, Clone)]
struct PathSystem {
    /// The arc the message is sent on, and delivered on once decided.
    arc: ArcId,
    /// Indices into [`FloodPlan::path_end`].
    paths: Range<usize>,
    /// Hops of the longest path.
    hops: usize,
}

/// The cover and its colouring as the flood loop reads them (see the module
/// docs).
#[derive(Debug, Clone)]
struct FloodPlan {
    /// Every path of every system as the arcs it travels from the message's
    /// sender to its receiver, back to back.
    arcs: Vec<ArcId>,
    /// Path `p` is `arcs[path_end[p - 1]..path_end[p]]`.
    path_end: Vec<usize>,
    /// The `u → v` system of every covered edge followed by its `v → u`
    /// system, by colour class and ascending edge id within a class.
    systems: Vec<PathSystem>,
    /// Colour class `c` is `systems[class_end[c - 1]..class_end[c]]`.
    class_end: Vec<usize>,
    paths_per_edge: usize,
    dilation: usize,
    congestion: usize,
}

impl FloodPlan {
    /// # Panics
    ///
    /// Panics if two hops of one colour class travel the same edge: then an
    /// arc would carry two floods at once.  A good colouring (Lemma 5.2) of
    /// edge-disjoint path systems rules it out.
    fn new(g: &Graph, cover: &FtCycleCover, coloring: &BTreeMap<EdgeId, usize>) -> Self {
        // Stable: ascending edge id (the map's order) within a colour.  An
        // edge without a colour is in no class, so its messages are not
        // carried.
        let mut by_class: Vec<(usize, EdgeId, &Vec<Vec<NodeId>>)> = cover
            .paths
            .iter()
            .filter_map(|(&eid, paths)| Some((*coloring.get(&eid)?, eid, paths)))
            .collect();
        by_class.sort_by_key(|&(colour, ..)| colour);
        let colors = by_class.last().map_or(0, |&(colour, ..)| colour + 1);
        let mut plan = FloodPlan {
            arcs: Vec::new(),
            path_end: Vec::new(),
            systems: Vec::with_capacity(2 * by_class.len()),
            class_end: vec![0; colors],
            paths_per_edge: cover.paths_per_edge(),
            dilation: cover.dilation().max(1),
            congestion: cover.congestion(g),
        };
        // Per graph edge: the last colour class one of whose hops travels it.
        let mut class_of_hop = vec![usize::MAX; g.edge_count()];
        for (colour, eid, paths) in by_class {
            let first = plan.path_end.len();
            for path in paths {
                for w in path.windows(2) {
                    let arc = g
                        .arc_between(w[0], w[1])
                        .unwrap_or_else(|| panic!("cover path leaves the graph at {w:?}"));
                    let owner = &mut class_of_hop[Graph::edge_of(arc)];
                    assert!(
                        *owner != colour,
                        "flood plan: two hops of colour class {colour} share edge {} \
                         (not a good colouring of edge-disjoint path systems)",
                        Graph::edge_of(arc)
                    );
                    *owner = colour;
                    plan.arcs.push(arc);
                }
                plan.path_end.push(plan.arcs.len());
            }
            // The cover's paths run `u → v`; the message from `v` to `u`
            // travels them backwards over the reverse arcs.
            let mirrored = plan.path_end.len();
            for p in first..mirrored {
                for i in plan.path_range(p).rev() {
                    plan.arcs.push(Graph::reverse_arc(plan.arcs[i]));
                }
                plan.path_end.push(plan.arcs.len());
            }
            let hops = paths.iter().map(|p| p.len() - 1).max().unwrap_or(0);
            let (uv, vu) = Graph::arcs_of(eid);
            for (arc, paths) in [(uv, first..mirrored), (vu, mirrored..plan.path_end.len())] {
                plan.systems.push(PathSystem { arc, paths, hops });
            }
            plan.class_end[colour] = plan.systems.len();
        }
        // A colour nobody holds is an empty class, not a class from 0.
        for colour in 1..colors {
            plan.class_end[colour] = plan.class_end[colour].max(plan.class_end[colour - 1]);
        }
        plan
    }

    fn colors(&self) -> usize {
        self.class_end.len()
    }

    fn class(&self, colour: usize) -> &[PathSystem] {
        let start = colour.checked_sub(1).map_or(0, |c| self.class_end[c]);
        &self.systems[start..self.class_end[colour]]
    }

    fn path_range(&self, p: usize) -> Range<usize> {
        p.checked_sub(1).map_or(0, |p| self.path_end[p])..self.path_end[p]
    }

    fn path(&self, p: usize) -> &[ArcId] {
        &self.arcs[self.path_range(p)]
    }
}

/// What reached the targets of a colour class's instances: per instance the
/// distinct payloads with how often each arrived.  Honest copies are all
/// alike, so an arrival is one slice comparison and the arena holds little
/// more than one payload per instance.
#[derive(Debug, Default)]
struct Arrivals {
    words: Vec<u64>,
    values: Vec<ArrivedValue>,
    /// Per instance: its first entry in `values` (`usize::MAX` for none);
    /// the others follow through [`ArrivedValue::next`].
    head: Vec<usize>,
}

#[derive(Debug)]
struct ArrivedValue {
    words: Range<usize>,
    count: usize,
    next: usize,
}

impl Arrivals {
    fn reset(&mut self, instances: usize) {
        self.words.clear();
        self.values.clear();
        self.head.clear();
        self.head.resize(instances, usize::MAX);
    }

    fn record(&mut self, instance: usize, msg: &[u64]) {
        self.record_n(instance, msg, 1);
    }

    /// `n` arrivals of `msg` at once; none at all for `n = 0`.
    fn record_n(&mut self, instance: usize, msg: &[u64], n: usize) {
        if n == 0 {
            return;
        }
        let mut at = self.head[instance];
        while let Some(value) = self.values.get_mut(at) {
            if self.words[value.words.clone()] == *msg {
                value.count += n;
                return;
            }
            at = value.next;
        }
        let start = self.words.len();
        self.words.extend_from_slice(msg);
        self.values.push(ArrivedValue {
            words: start..self.words.len(),
            count: n,
            next: self.head[instance],
        });
        self.head[instance] = self.values.len() - 1;
    }

    /// The most frequent arrival of `instance`, ties to the smallest payload
    /// — the total order of `interactive_coding::most_frequent`, so neither
    /// arrival order nor the chain's order can show.
    fn plurality(&self, instance: usize) -> Option<&[u64]> {
        let mut best: Option<(usize, &[u64])> = None;
        let mut at = self.head[instance];
        while let Some(value) = self.values.get(at) {
            let words = &self.words[value.words.clone()];
            if best.is_none_or(|(count, smallest)| {
                value.count > count || (value.count == count && words < smallest)
            }) {
                best = Some((value.count, words));
            }
            at = value.next;
        }
        best.map(|(_, words)| words)
    }
}

/// Where one path of the class in progress stands (see
/// [`Flood::payload_round`]).
#[derive(Debug, Clone, Copy, Default)]
struct PathFront {
    /// The instance whose message the path carries.
    instance: usize,
    /// The arc that message was sent on (its value is `sent` there).
    source: ArcId,
    /// The relays of the first `front` hops hold a value; the others hold
    /// nothing yet.
    front: usize,
    /// Every value held along the path is the sender's.
    clean: bool,
    /// The adversary rewrote one of its held arcs this round.
    touched: bool,
    /// Complete and clean: until touched, it delivers the sender's value
    /// every round, counted in bulk.
    parked: bool,
}

/// The recycled buffers of one compiled run.
#[derive(Debug, Default)]
struct Flood {
    /// The protected algorithm's messages of the current payload round.
    sent: Traffic,
    /// What its nodes receive for them: the decided value per sent message.
    corrected: Traffic,
    /// Per arc of the class in progress: the payload its hop's relay holds
    /// and forwards every round (the network's held-round buffer).
    held: Traffic,
    arrivals: Arrivals,
    /// Per arc: the plan path whose hop of the class in progress travels it.
    /// Read only for arcs `held` carries, all of which that class wrote.
    owner: Vec<usize>,
    /// Per plan path: where it stands in the class in progress.
    paths: Vec<PathFront>,
    /// The class's paths that are not parked, in no particular order.
    active: Vec<usize>,
    /// Per instance: arrivals its parked paths still owe the tally.
    owed: Vec<usize>,
}

impl Flood {
    /// Simulate one payload round: flood every message of `sent`, colour
    /// class by colour class, and leave the decided values in `corrected`.
    ///
    /// The relays' values live in `held`, which the network sends every round
    /// as it is and never rewrites ([`Network::held_rounds`]); a path only
    /// changes where a value advances or where the adversary struck.  So a
    /// path is walked hop by hop only in a round where the adversary rewrote
    /// one of its held arcs, or while a foreign value is still on it; a clean
    /// path moves its front one hop in `O(1)`, and once complete it is parked:
    /// the sender's value arrives once per round, and those arrivals are
    /// added in bulk ([`Arrivals::record_n`] — the plurality depends only on
    /// the per-value counts) until a rewrite touches the path again.
    fn payload_round(&mut self, plan: &FloodPlan, window: usize, net: &mut Network) {
        let Flood {
            sent,
            corrected,
            held,
            arrivals,
            owner,
            paths,
            active,
            owed,
        } = self;
        corrected.begin_round(net.graph());
        owner.resize(net.graph().arc_count(), usize::MAX);
        paths.resize(plan.path_end.len(), PathFront::default());
        for colour in 0..plan.colors() {
            // Within a class all path systems are edge-disjoint, so all
            // their floods share rounds.  An instance is a system with a
            // message to carry; its relays start out holding nothing but the
            // sender's copy on every first hop.
            let instances = || {
                let class = plan.class(colour).iter();
                class.filter_map(|system| Some((system, sent.get_arc(system.arc)?)))
            };
            let Some(class_dilation) = instances().map(|(system, _)| system.hops).max() else {
                continue;
            };
            let rounds = class_dilation + window;
            arrivals.reset(plan.class(colour).len());
            owed.clear();
            owed.resize(plan.class(colour).len(), 0);
            active.clear();
            let mut scope = net.held_rounds(held);
            for (i, (system, payload)) in instances().enumerate() {
                for p in system.paths.clone() {
                    let path = plan.path(p);
                    scope.set_arc(path[0], Some(payload));
                    for &arc in path {
                        owner[arc] = p;
                    }
                    // A one-hop path is complete from the start.
                    let parked = path.len() == 1;
                    paths[p] = PathFront {
                        instance: i,
                        source: system.arc,
                        front: 1,
                        clean: true,
                        touched: false,
                        parked,
                    };
                    if parked {
                        owed[i] += rounds;
                    } else {
                        active.push(p);
                    }
                }
            }
            for round in 0..rounds {
                scope.exchange();
                for arc in scope.delivered().arcs() {
                    // A relay that held nothing sent nothing: whatever shows
                    // up on its arc was fabricated, and nobody takes it.
                    if scope.held().get_arc(arc).is_none() {
                        continue;
                    }
                    let state = &mut paths[owner[arc]];
                    state.touched = true;
                    if state.parked {
                        // It owes no arrival from this round on.
                        state.parked = false;
                        owed[state.instance] -= rounds - round;
                        active.push(owner[arc]);
                    }
                }
                active.retain(|&p| {
                    let (state, path) = (&mut paths[p], plan.path(p));
                    let payload = sent
                        .get_arc(state.source)
                        .expect("instances carry a message");
                    if state.touched || !state.clean {
                        // Last hop first: a value moves one hop per round.
                        // A dropped message leaves the next relay's value
                        // alone.
                        for hop in (0..state.front).rev() {
                            match path.get(hop + 1) {
                                Some(&next) => scope.relay(path[hop], next),
                                None => {
                                    if let Some(msg) = scope.received(path[hop]) {
                                        arrivals.record(state.instance, msg);
                                    }
                                }
                            }
                        }
                        let held = scope.held();
                        if path
                            .get(state.front)
                            .is_some_and(|&arc| held.get_arc(arc).is_some())
                        {
                            state.front += 1;
                        }
                        state.clean = path[1..state.front]
                            .iter()
                            .all(|&arc| held.get_arc(arc) == Some(payload));
                        state.touched = false;
                    } else {
                        // Clean and incomplete (complete ones are parked).
                        scope.set_arc(path[state.front], Some(payload));
                        state.front += 1;
                    }
                    state.parked = state.clean && state.front == path.len();
                    if state.parked {
                        owed[state.instance] += rounds - 1 - round;
                    }
                    !state.parked
                });
            }
            drop(scope);
            for (i, (system, payload)) in instances().enumerate() {
                arrivals.record_n(i, payload, owed[i]);
                if let Some(value) = arrivals.plurality(i) {
                    corrected.set_arc(system.arc, Some(value));
                }
            }
        }
    }
}

/// The Theorem 1.4 compiler.
#[derive(Debug, Clone)]
pub struct CycleCoverCompiler {
    plan: FloodPlan,
    f: usize,
}

impl CycleCoverCompiler {
    /// Build the compiler for an `f`-mobile adversary on a `(2f+1)`-edge-connected
    /// graph.  Returns `None` if the graph is not sufficiently connected.
    pub fn new(g: &Graph, f: usize) -> Option<Self> {
        let cover = FtCycleCover::build(g, 2 * f + 1)?;
        let plan = FloodPlan::new(g, &cover, &cover.good_coloring(g));
        Some(CycleCoverCompiler { plan, f })
    }

    /// Run the compiled algorithm on the network: per payload round, per
    /// colour class with a message to carry, `longest path + window` network
    /// rounds of the flood described in the module docs, then the plurality of
    /// what arrived over the last hops (Lemma 5.6).  Every network round is a
    /// held round on the complete traffic the relays send, so the adversary
    /// sees and corrupts exactly that.
    pub fn run<A: CongestAlgorithm + ?Sized>(
        &self,
        alg: &mut A,
        net: &mut Network,
    ) -> (Vec<Output>, CycleCoverReport) {
        let start = net.round();
        let r = alg.rounds();
        let window = 2 * self.f * self.plan.dilation + self.plan.dilation + 1;
        let mut flood = Flood::default();
        for round in 0..r {
            alg.send_into(round, &mut flood.sent);
            flood.payload_round(&self.plan, window, net);
            alg.receive(round, &flood.corrected);
        }
        (
            alg.outputs(),
            CycleCoverReport {
                paths_per_edge: self.plan.paths_per_edge,
                dilation: self.plan.dilation,
                congestion: self.plan.congestion,
                colors: self.plan.colors(),
                network_rounds: net.round() - start,
                payload_rounds: r,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algorithms::{FloodBroadcast, LeaderElection};
    use congest_sim::adversary::{
        AdaptiveHeaviest, AdversaryRole, AdversaryStrategy, CorruptionBudget, CorruptionMode,
        EclipseNode, GreedyHeaviest, RandomMobile, SweepMobile,
    };
    use congest_sim::run_fault_free;
    use congest_sim::scenario::matrix::graph_zoo_defs;
    use congest_sim::traffic::Payload;
    use netgraph::generators;
    use proptest::prelude::*;

    fn byz_net(g: Graph, f: usize, seed: u64) -> Network {
        Network::new(
            g,
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(f, seed).with_mode(CorruptionMode::Constant(13))),
            CorruptionBudget::Mobile { f },
            seed,
        )
    }

    /// The zoo graphs that admit an `f = 1` cover, with cover and colouring.
    fn covered_zoo() -> Vec<(Graph, FtCycleCover, BTreeMap<EdgeId, usize>)> {
        let covered: Vec<_> = graph_zoo_defs(2024)
            .iter()
            .filter_map(|def| {
                let g = def.build().expect("zoo graph builds");
                let cover = FtCycleCover::build(&g, 3)?;
                let coloring = cover.good_coloring(&g);
                Some((g, cover, coloring))
            })
            .collect();
        assert_eq!(
            covered.len(),
            5,
            "K12, circulant, torus, expander, small world"
        );
        covered
    }

    /// The pre-plan `run`, kept as the oracle: per colour class it walks the
    /// cover, orients every path as a node sequence per instance, rebuilds
    /// each round with `Traffic::send` from per-hop `Option<Payload>` holders
    /// and votes with `interactive_coding::most_frequent`.
    fn run_by_send<A: CongestAlgorithm + ?Sized>(
        cover: &FtCycleCover,
        coloring: &BTreeMap<EdgeId, usize>,
        f: usize,
        alg: &mut A,
        net: &mut Network,
    ) -> (Vec<Output>, CycleCoverReport) {
        let g = net.graph().clone();
        let start = net.round();
        let r = alg.rounds();
        let dilation = cover.dilation().max(1);
        let window = 2 * f * dilation + dilation + 1;
        let num_colors = coloring.values().max().map_or(0, |c| c + 1);

        let mut sent = Traffic::new(&g);
        for round in 0..r {
            alg.send_into(round, &mut sent);
            let mut corrected = Traffic::new(&g);
            for colour in 0..num_colors {
                let mut instances: Vec<FloodInstance> = Vec::new();
                for (&eid, paths) in &cover.paths {
                    if coloring.get(&eid) != Some(&colour) {
                        continue;
                    }
                    let edge = g.edge(eid);
                    for (from, to) in [(edge.u, edge.v), (edge.v, edge.u)] {
                        if let Some(payload) = sent.get(&g, from, to) {
                            let oriented: Vec<Vec<NodeId>> = paths
                                .iter()
                                .map(|p| {
                                    if p[0] == from {
                                        p.clone()
                                    } else {
                                        p.iter().rev().copied().collect()
                                    }
                                })
                                .collect();
                            instances.push(FloodInstance {
                                from,
                                to,
                                payload: payload.to_vec(),
                                paths: oriented,
                            });
                        }
                    }
                }
                if instances.is_empty() {
                    continue;
                }
                let decided = flood_instances(net, &instances, window);
                for (inst, value) in instances.iter().zip(decided) {
                    if let Some(v) = value {
                        corrected.send(&g, inst.from, inst.to, v);
                    }
                }
            }
            alg.receive(round, &corrected);
        }

        (
            alg.outputs(),
            CycleCoverReport {
                paths_per_edge: cover.paths_per_edge(),
                dilation,
                congestion: cover.congestion(&g),
                colors: num_colors,
                network_rounds: net.round() - start,
                payload_rounds: r,
            },
        )
    }

    struct FloodInstance {
        from: NodeId,
        to: NodeId,
        payload: Payload,
        paths: Vec<Vec<NodeId>>,
    }

    fn flood_instances(
        net: &mut Network,
        instances: &[FloodInstance],
        window: usize,
    ) -> Vec<Option<Payload>> {
        let g = net.graph().clone();
        let dilation = instances
            .iter()
            .flat_map(|i| i.paths.iter().map(|p| p.len() - 1))
            .max()
            .unwrap_or(0);
        let total_rounds = dilation + window;
        // holder[instance][path][hop] = value currently held at that hop.
        let mut holder: Vec<Vec<Vec<Option<Payload>>>> = instances
            .iter()
            .map(|inst| {
                inst.paths
                    .iter()
                    .map(|p| {
                        let mut h = vec![None; p.len()];
                        h[0] = Some(inst.payload.clone());
                        h
                    })
                    .collect()
            })
            .collect();
        let mut arrived: Vec<Vec<Payload>> = vec![Vec::new(); instances.len()];

        let mut traffic = Traffic::new(&g);
        for _ in 0..total_rounds {
            traffic.begin_round(&g);
            for (ii, inst) in instances.iter().enumerate() {
                for (pi, path) in inst.paths.iter().enumerate() {
                    for hop in 0..path.len() - 1 {
                        if let Some(val) = &holder[ii][pi][hop] {
                            traffic.send(&g, path[hop], path[hop + 1], val);
                        }
                    }
                }
            }
            net.exchange_in_place(&mut traffic);
            for (ii, inst) in instances.iter().enumerate() {
                for (pi, path) in inst.paths.iter().enumerate() {
                    for hop in (0..path.len() - 1).rev() {
                        if holder[ii][pi][hop].is_some() {
                            if let Some(msg) = traffic.get(&g, path[hop], path[hop + 1]) {
                                if hop + 1 == path.len() - 1 {
                                    arrived[ii].push(msg.to_vec());
                                } else {
                                    holder[ii][pi][hop + 1] = Some(msg.to_vec());
                                }
                            }
                        }
                    }
                }
            }
        }

        arrived
            .iter()
            .map(|values| interactive_coding::most_frequent(values).cloned())
            .collect()
    }

    /// A payload shaped to hit every message kind the flood must carry: per
    /// arc and round it is silent, sends an empty-but-present message, one
    /// word or three words; a node's output folds in all it received.
    struct Ragged {
        g: Graph,
        digest: Vec<u64>,
    }

    impl Ragged {
        fn new(g: Graph) -> Self {
            let digest = vec![0; g.node_count()];
            Ragged { g, digest }
        }
    }

    impl CongestAlgorithm for Ragged {
        fn name(&self) -> String {
            "ragged".into()
        }
        fn rounds(&self) -> usize {
            3
        }
        fn send_into(&mut self, round: usize, out: &mut Traffic) {
            out.begin_round(&self.g);
            for arc in 0..self.g.arc_count() {
                let (_, from, _) = self.g.arc_endpoints(arc);
                let word = self.digest[from] ^ (arc as u64);
                match (arc + round) % 4 {
                    0 => {}
                    1 => out.set_arc(arc, Some(&[])),
                    2 => out.set_arc(arc, Some(&[word])),
                    _ => out.set_arc(arc, Some(&[word, round as u64, !word])),
                }
            }
        }
        fn receive(&mut self, _round: usize, inbox: &Traffic) {
            for v in self.g.nodes() {
                for (u, msg) in inbox.inbox(&self.g, v) {
                    let mut h =
                        self.digest[v].rotate_left(7) ^ (u as u64) ^ ((msg.len() as u64) << 32);
                    for &w in msg {
                        h = h.rotate_left(13).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ w;
                    }
                    self.digest[v] = h;
                }
            }
        }
        fn outputs(&self) -> Vec<Output> {
            self.digest.iter().map(|&d| vec![d]).collect()
        }
    }

    fn strategies(f: usize, mode: CorruptionMode) -> Vec<Box<dyn AdversaryStrategy>> {
        vec![
            Box::new(RandomMobile::new(f, 41).with_mode(mode)),
            Box::new(SweepMobile::new(f).with_mode(mode)),
            Box::new(GreedyHeaviest::new(f).with_mode(mode)),
            Box::new(AdaptiveHeaviest::new(f).with_mode(mode)),
            Box::new(EclipseNode::new(3, f).with_mode(mode)),
        ]
    }

    fn payloads(g: &Graph) -> Vec<Box<dyn CongestAlgorithm>> {
        vec![
            Box::new(FloodBroadcast::new(g.clone(), 0, 4242)),
            Box::new(LeaderElection::new(g.clone())),
            Box::new(Ragged::new(g.clone())),
        ]
    }

    #[test]
    fn planned_flood_equals_the_send_built_flood() {
        let f = 1;
        for (g, cover, coloring) in covered_zoo() {
            let compiler = CycleCoverCompiler::new(&g, f).expect("covered");
            for mode in [
                CorruptionMode::ReplaceRandom,
                CorruptionMode::FlipLowBit,
                CorruptionMode::Drop,
                CorruptionMode::Constant(13),
            ] {
                for (fast, slow) in strategies(f, mode).into_iter().zip(strategies(f, mode)) {
                    let name = fast.name();
                    let net_with = |strategy| {
                        Network::new(
                            g.clone(),
                            AdversaryRole::Byzantine,
                            strategy,
                            CorruptionBudget::Mobile { f },
                            17,
                        )
                    };
                    let (mut fast_net, mut slow_net) = (net_with(fast), net_with(slow));
                    // Back to back on one network: every run after the first
                    // starts from a non-zero round and adversary state.
                    for _ in 0..2 {
                        for (mut a, mut b) in payloads(&g).into_iter().zip(payloads(&g)) {
                            let got = compiler.run(&mut *a, &mut fast_net);
                            let want = run_by_send(&cover, &coloring, f, &mut *b, &mut slow_net);
                            assert_eq!(got, want, "{name} {mode:?} {}", a.name());
                        }
                    }
                    assert_eq!(fast_net.metrics(), slow_net.metrics(), "{name} {mode:?}");
                    assert!(
                        fast_net.metrics().corrupted_edge_rounds > 0,
                        "{name} {mode:?}"
                    );
                    assert_eq!(
                        fast_net.corruption_history(),
                        slow_net.corruption_history(),
                        "{name} {mode:?}"
                    );
                    assert_eq!(
                        fast_net.public_coin(),
                        slow_net.public_coin(),
                        "{name} {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_arc_has_one_owner_per_class_and_every_path_is_a_walk() {
        for (g, cover, coloring) in covered_zoo() {
            let plan = FloodPlan::new(&g, &cover, &coloring);
            assert_eq!(plan.systems.len(), g.arc_count());
            assert_eq!(plan.class_end.last(), Some(&plan.systems.len()));
            for colour in 0..plan.colors() {
                let mut owned = vec![false; g.arc_count()];
                for system in plan.class(colour) {
                    let (eid, source, target) = g.arc_endpoints(system.arc);
                    assert_eq!(coloring[&eid], colour);
                    assert_eq!(system.paths.len(), cover.paths[&eid].len());
                    for p in system.paths.clone() {
                        let mut at = source;
                        for &arc in plan.path(p) {
                            assert!(!std::mem::replace(&mut owned[arc], true));
                            let (_, from, to) = g.arc_endpoints(arc);
                            assert_eq!(from, at);
                            at = to;
                        }
                        assert_eq!(at, target);
                        assert!(plan.path(p).len() <= system.hops);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "flood plan: two hops of colour class 0 share edge")]
    fn a_bad_colouring_is_rejected_by_name() {
        // On a cycle every path system uses every edge, so one colour for all
        // puts every edge under several floods at once.
        let g = generators::cycle(5);
        let cover = FtCycleCover::build(&g, 2).unwrap();
        let bad: BTreeMap<EdgeId, usize> = (0..g.edge_count()).map(|e| (e, 0)).collect();
        FloodPlan::new(&g, &cover, &bad);
    }

    #[test]
    fn unused_colours_are_empty_classes() {
        let g = generators::cycle(4);
        let cover = FtCycleCover::build(&g, 2).unwrap();
        let gappy: BTreeMap<EdgeId, usize> = (0..g.edge_count()).map(|e| (e, 2 * e + 1)).collect();
        let plan = FloodPlan::new(&g, &cover, &gappy);
        assert_eq!(plan.colors(), 8);
        for colour in 0..8 {
            // Both directions of one edge, or nothing.
            assert_eq!(
                plan.class(colour).len(),
                2 * (colour % 2),
                "colour {colour}"
            );
        }
    }

    #[test]
    fn steady_state_flood_rounds_do_not_grow_the_buffers() {
        let (g, cover, coloring) = covered_zoo().pop().expect("the small world");
        let plan = FloodPlan::new(&g, &cover, &coloring);
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(1, 5)),
            CorruptionBudget::Mobile { f: 1 },
            5,
        );
        let mut flood = Flood::default();
        let payload_round = |flood: &mut Flood, net: &mut Network, round: u64| {
            flood.sent.begin_round(&g);
            for arc in 0..g.arc_count() {
                flood.sent.set_arc(arc, Some(&[arc as u64, round]));
            }
            flood.payload_round(&plan, 3 * plan.dilation + 1, net);
            assert_eq!(flood.corrected, flood.sent, "round {round} not corrected");
        };
        payload_round(&mut flood, &mut net, 0);
        let caps = |flood: &Flood| {
            [
                flood.corrected.word_capacity(),
                flood.held.word_capacity(),
                flood.owner.capacity(),
                flood.paths.capacity(),
                flood.active.capacity(),
                flood.owed.capacity(),
            ]
        };
        let (traffic_caps, engine_cap) = (caps(&flood), net.round_buffer_capacity());
        for round in 1..4 {
            payload_round(&mut flood, &mut net, round);
        }
        assert_eq!(caps(&flood), traffic_caps, "a traffic arena regrew");
        assert_eq!(net.round_buffer_capacity(), engine_cap, "engine regrew");
        assert!(net.metrics().corrupted_messages > 0);
    }

    proptest! {
        #[test]
        fn plurality_of_arrivals_is_the_majority_rule(
            arrivals in prop::collection::vec(
                (0usize..3, prop::collection::vec(0u64..3, 0..3)),
                0..40,
            )
        ) {
            // A small alphabet of mixed lengths: ties, prefixes and the empty
            // payload all occur.
            let mut tally = Arrivals::default();
            tally.reset(1);
            tally.record(0, &[9, 9, 9]); // stale state the next `reset` must drop
            tally.reset(3);
            let mut listed: Vec<Vec<Payload>> = vec![Vec::new(); 3];
            for (instance, msg) in &arrivals {
                tally.record(*instance, msg);
                listed[*instance].push(msg.clone());
            }
            for (instance, values) in listed.iter().enumerate() {
                prop_assert_eq!(
                    tally.plurality(instance).map(<[u64]>::to_vec),
                    interactive_coding::most_frequent(values).cloned()
                );
            }
        }
    }

    #[test]
    fn insufficient_connectivity_is_rejected() {
        let g = generators::cycle(6); // 2-edge-connected: f = 1 needs 3
        assert!(CycleCoverCompiler::new(&g, 1).is_none());
        assert!(CycleCoverCompiler::new(&g, 0).is_some());
    }

    /// Theorems 1.4 / 5.5 on `(2f + 1)`-edge-connected graphs: `2f + 1`
    /// paths per edge, the fault-free outputs, and per payload round at most
    /// one flood per colour class of `dilation + window` rounds, the window
    /// being `(2f + 1)·dilation + 1`.
    #[test]
    fn cycle_cover_compiler_on_circulant_f1() {
        for (g, f, seed) in [
            (generators::circulant(9, 2), 1usize, 3u64),
            (generators::circulant(9, 2), 1, 5),
            (generators::circulant(11, 3), 2, 5),
            (generators::complete(8), 1, 5),
        ] {
            let compiler = CycleCoverCompiler::new(&g, f).expect("sufficiently connected");
            let expected = run_fault_free(&mut FloodBroadcast::new(g.clone(), 0, 88));
            let mut net = byz_net(g.clone(), f, seed);
            let (out, report) = compiler.run(&mut FloodBroadcast::new(g.clone(), 0, 88), &mut net);
            assert!(net.metrics().corrupted_edge_rounds > 0, "f={f}");
            assert_eq!(out, expected, "f={f}");
            assert_eq!(report.paths_per_edge, 2 * f + 1);
            let per_class = (2 * f + 2) * report.dilation + 1;
            assert!(report.network_rounds > report.payload_rounds);
            assert!(
                report.network_rounds <= report.payload_rounds * report.colors * per_class,
                "f={f}: {report:?}"
            );
        }
    }

    #[test]
    fn cycle_cover_compiler_leader_election_clique() {
        let g = generators::complete(7);
        let f = 1;
        let compiler = CycleCoverCompiler::new(&g, f).unwrap();
        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        let mut net = byz_net(g.clone(), f, 9);
        let (out, _) = compiler.run(&mut LeaderElection::new(g.clone()), &mut net);
        assert_eq!(out, expected);
    }

    #[test]
    fn fault_free_run_has_zero_overpayment_in_correctness() {
        let g = generators::circulant(8, 2);
        let compiler = CycleCoverCompiler::new(&g, 1).unwrap();
        let expected = run_fault_free(&mut LeaderElection::new(g.clone()));
        let mut net = Network::fault_free(g.clone());
        let (out, _) = compiler.run(&mut LeaderElection::new(g.clone()), &mut net);
        assert_eq!(out, expected);
    }
}
