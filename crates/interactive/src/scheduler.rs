//! The parallel tree-protocol scheduler (Lemma 3.3) with the Rajagopalan–
//! Schulman compilation guarantee (Theorem 3.2) applied per tree.
//!
//! The byzantine compilers repeatedly run one sub-protocol per tree of a
//! `(k, D_TP, η)` packing — sketch aggregation up each tree, share broadcast
//! down each tree — *in parallel*, and only need the following guarantee: over
//! a window of `t_RS · r · η` rounds, all but `t_RS · c_RS · f · η` of the `k`
//! RS-compiled instances end correctly (Lemma 3.3).
//!
//! The paper treats the RS compiler as a black box providing Theorem 3.2:
//! an instance ends correctly iff the adversary corrupted less than a
//! `1/(c_RS · m)` fraction of its communication.  [`RsScheduler`] reproduces
//! exactly that black-box semantics while keeping the *adversary dynamics*
//! real: the scheduled rounds are executed on the [`Network`] (so a mobile
//! adversary chooses real edges in real rounds and the traffic pattern matches
//! the schedule of Lemma 3.3), corruptions are attributed to the tree instance
//! whose message occupied the corrupted edge in that round, and an instance is
//! failed once its attributed corruption exceeds the RS threshold.  The
//! concrete (non-oracle) instantiation of the same interface lives in
//! [`crate::replay`].

use congest_sim::network::Network;
use congest_sim::traffic::Traffic;
use netgraph::tree_packing::TreePacking;
use netgraph::{EdgeId, Graph};

/// The constant `c_RS` of Theorem 3.2: an instance fails once the adversary has
/// corrupted at least a `1/c_RS` fraction of its per-edge rounds.
pub const C_RS: usize = 2;

/// The constant `t_RS` of Theorem 3.2 (round blow-up of the RS compilation).
pub const T_RS: usize = 1;

/// Outcome of one scheduled per-tree protocol instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRunReport {
    /// Index of the tree in the packing.
    pub tree: usize,
    /// Number of corrupted edge-round messages attributed to this instance.
    pub corrupted_messages: usize,
    /// Whether the RS-compiled instance ended correctly.
    pub ok: bool,
}

/// Report of a full scheduled family run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyRunReport {
    /// Per-tree outcome.
    pub per_tree: Vec<TreeRunReport>,
    /// Number of network rounds the schedule consumed.
    pub rounds_used: usize,
}

impl FamilyRunReport {
    /// The report of a family run in which instance `i` had `corrupted[i]`
    /// controlled edge-rounds attributed to it: an instance of round
    /// complexity `r` fails from `max(1, r / c_RS)` on (Theorem 3.2).
    fn of(corrupted: &[usize], r: usize, rounds_used: usize) -> Self {
        let threshold = (r / C_RS).max(1);
        FamilyRunReport {
            per_tree: corrupted
                .iter()
                .enumerate()
                .map(|(tree, &corrupted_messages)| TreeRunReport {
                    tree,
                    corrupted_messages,
                    ok: corrupted_messages < threshold,
                })
                .collect(),
            rounds_used,
        }
    }

    /// Indices of trees whose instance ended correctly.
    pub fn successful_trees(&self) -> Vec<usize> {
        self.per_tree
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.tree)
            .collect()
    }

    /// Number of instances that ended correctly.
    pub fn success_count(&self) -> usize {
        self.per_tree.iter().filter(|r| r.ok).count()
    }
}

/// Precomputed schedule structure for [`RsScheduler`] over a fixed
/// `(graph, packing)` pair, stored as flat arrays.
///
/// Lemma 3.3 schedules the trees sharing an edge round-robin: in slot
/// `s ∈ 0..η` edge `e` carries the `s`-th tree (in packing order) that uses
/// it, if there is one.  The plan holds that relation twice:
///
/// * **edge-major** (a CSR over edges) — "which tree owns edge `e` in slot
///   `s`", the lookup that attributes a corruption to an instance;
/// * **slot-major** — for every slot the `(edge, tree)` pairs it schedules, in
///   edge order, which is what a scheduled round's traffic is built from.
///
/// Building the plan is one pass over the trees' edge lists, and the
/// byzantine compilers run the same family many times per execution (once per
/// simulated round plus once per safe-broadcast chunk), so callers build it
/// once per packing — in `Compiler::prepare`, where the campaign artifact
/// cache then shares it across every `(seed, adversary)` cell.  The plan
/// carries no randomness, no network state and **no traffic**: the per-slot
/// message templates are built per [`RsScheduler::run_planned`] call (see
/// there for why).
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    /// Edge-major CSR: the trees using edge `e`, in packing order, are
    /// `edge_trees[edge_offsets[e]..edge_offsets[e + 1]]`.
    edge_offsets: Vec<u32>,
    edge_trees: Vec<u32>,
    /// Slot-major: slot `s` schedules `slot_entries[slot_offsets[s]..
    /// slot_offsets[s + 1]]`, `(edge, tree)` pairs in edge order.
    slot_offsets: Vec<u32>,
    slot_entries: Vec<(u32, u32)>,
    /// Number of trees of the packing the plan was built for.
    trees: usize,
}

impl SchedulePlan {
    /// Build the plan for `packing` over `g`.
    pub fn new(g: &Graph, packing: &TreePacking) -> Self {
        let m = g.edge_count();
        // The distinct (edge, tree) incidences, tree by tree.  `seen[e]` is
        // the last tree recorded on `e`: a tree whose edge list repeats an
        // edge still occupies it once (`TreePacking::trees_using_edge`).
        let mut seen = vec![u32::MAX; m];
        let mut incidences: Vec<(u32, u32)> = Vec::new();
        for (t, tree) in packing.trees.iter().enumerate() {
            for &e in &tree.edges {
                if seen[e] != t as u32 {
                    seen[e] = t as u32;
                    incidences.push((e as u32, t as u32));
                }
            }
        }
        // Edge-major: a counting sort by edge keeps each edge's trees in
        // packing order.
        let mut edge_offsets = vec![0u32; m + 1];
        for &(e, _) in &incidences {
            edge_offsets[e as usize + 1] += 1;
        }
        for e in 0..m {
            edge_offsets[e + 1] += edge_offsets[e];
        }
        let mut edge_trees = vec![0u32; incidences.len()];
        let mut next = edge_offsets.clone();
        for &(e, tree) in &incidences {
            edge_trees[next[e as usize] as usize] = tree;
            next[e as usize] += 1;
        }
        // Slot-major: the same counting sort by position within the edge's
        // list, walking the edges in order.
        let eta = packing.load(g).max(1);
        let mut slot_offsets = vec![0u32; eta + 1];
        for e in 0..m {
            for s in 0..(edge_offsets[e + 1] - edge_offsets[e]) as usize {
                slot_offsets[s + 1] += 1;
            }
        }
        for s in 0..eta {
            slot_offsets[s + 1] += slot_offsets[s];
        }
        let mut slot_entries = vec![(0u32, 0u32); incidences.len()];
        let mut next = slot_offsets.clone();
        for e in 0..m {
            let users = &edge_trees[edge_offsets[e] as usize..edge_offsets[e + 1] as usize];
            for (s, &tree) in users.iter().enumerate() {
                slot_entries[next[s] as usize] = (e as u32, tree);
                next[s] += 1;
            }
        }
        SchedulePlan {
            edge_offsets,
            edge_trees,
            slot_offsets,
            slot_entries,
            trees: packing.len(),
        }
    }

    /// The packing's maximum edge load `η` (≥ 1), as scheduled.
    pub fn eta(&self) -> usize {
        self.slot_offsets.len() - 1
    }

    /// Number of edges of the graph the plan was built for.
    fn edge_count(&self) -> usize {
        self.edge_offsets.len() - 1
    }

    /// The trees using edge `e`, in packing order.
    fn trees_on_edge(&self, e: EdgeId) -> &[u32] {
        &self.edge_trees[self.edge_offsets[e] as usize..self.edge_offsets[e + 1] as usize]
    }

    /// The `(edge, tree)` pairs scheduled in `slot`, in edge order.
    fn slot(&self, slot: usize) -> &[(u32, u32)] {
        &self.slot_entries[self.slot_offsets[slot] as usize..self.slot_offsets[slot + 1] as usize]
    }

    /// The instance whose message occupies edge `e` in `slot`, if any.
    fn owner(&self, e: EdgeId, slot: usize) -> Option<usize> {
        self.trees_on_edge(e).get(slot).map(|&t| t as usize)
    }
}

/// The scheduled rounds of one [`RsScheduler::run_planned`] call: the `η`
/// per-slot message templates and the working buffer they are copied into.
///
/// Round `i` of a call is slot `i mod η` with the word `[tree, i]` on both
/// arcs of every scheduled edge, so within a call only the round word ever
/// changes between two rounds of one slot.  A round is therefore a
/// `clone_from` of the slot's template (two `memcpy`s into buffers that keep
/// their capacity) plus one word patched per arc, instead of a rebuild
/// through `Traffic::send`.
struct SlotRounds<'a> {
    plan: &'a SchedulePlan,
    /// Per slot: `[tree, 0]` on both arcs of every edge the slot schedules.
    templates: Vec<Traffic>,
    traffic: Traffic,
}

impl<'a> SlotRounds<'a> {
    fn new(plan: &'a SchedulePlan) -> Self {
        let arcs = 2 * plan.edge_count();
        let templates = (0..plan.eta())
            .map(|slot| {
                let mut template = Traffic::with_arcs(arcs);
                for &(e, tree) in plan.slot(slot) {
                    let (fwd, bwd) = Graph::arcs_of(e as EdgeId);
                    for arc in [fwd, bwd] {
                        template.set_arc(arc, Some(&[tree as u64, 0]));
                    }
                }
                template
            })
            .collect();
        SlotRounds {
            plan,
            templates,
            traffic: Traffic::with_arcs(arcs),
        }
    }

    /// Execute scheduled round `round` of the call on `net` and add each
    /// controlled edge-round to the instance that occupied the edge.
    fn run(&mut self, net: &mut Network, round: usize, corrupted: &mut [usize]) {
        let slot = round % self.templates.len();
        self.traffic.clone_from(&self.templates[slot]);
        for &(e, _) in self.plan.slot(slot) {
            let (fwd, bwd) = Graph::arcs_of(e as EdgeId);
            for arc in [fwd, bwd] {
                self.traffic.arc_mut(arc).expect("template fills the arc")[1] = round as u64;
            }
        }
        net.exchange_in_place(&mut self.traffic);
        if let Some(edges) = net.corruption_history().last() {
            for &e in edges {
                if let Some(tree) = self.plan.owner(e, slot) {
                    corrupted[tree] += 1;
                }
            }
        }
    }
}

/// The Lemma 3.3 scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct RsScheduler;

impl RsScheduler {
    /// Run one RS-compiled protocol per tree of `packing`, all in parallel, on
    /// the network, through the [`SchedulePlan`] built for `(graph, packing)`.
    ///
    /// * `rounds_per_protocol` — the round complexity `r` of each individual
    ///   (uncompiled) tree protocol (e.g. `Θ(D_TP + sketch words)`),
    /// * the schedule executes `T_RS · r · η` network rounds where
    ///   `η = max_e |{trees using e}|` (the packing's load, at least 1),
    /// * in every scheduled round each tree edge carries a two-word message
    ///   `[instance, round]` of the instance scheduled on it, so the adversary
    ///   faces the real traffic pattern of Lemma 3.3,
    /// * each corruption is attributed to the instance whose message occupied
    ///   the corrupted edge; an instance fails once its attributed corruption
    ///   reaches `max(1, r / c_RS)` messages (the Theorem 3.2 threshold).
    ///
    /// Returns which instances ended correctly.  What the surviving instances
    /// *compute* is up to the caller (the compiler applies the corresponding
    /// fault-free result to successful trees and treats failed trees as
    /// adversarially controlled).
    ///
    /// # The slot-template loop
    ///
    /// The call first builds one template [`Traffic`] per slot from the plan's
    /// slot-major list, then runs every round as "copy the slot's template
    /// into the working buffer, patch the round word, `exchange_in_place`":
    /// no adjacency scan, no arena append, and nothing allocated after the
    /// templates.  Every round still goes through the network's round engine,
    /// so the adversary sees the complete traffic and the budget clamp,
    /// corruption randomness, history, metrics and trace spans are those of
    /// any other round.
    ///
    /// The templates live for one call, not in the plan: a plan sits in the
    /// artifact cache for a whole campaign, and holding `η` traffic arenas
    /// per plan there took the `cold-pairs` benchmark's peak RSS from 21.6 to
    /// 32.4 MiB.  Built per call they cost about one round's worth of writes
    /// per slot, against the `r` rounds each slot then runs, and die with the
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for a graph with a different edge count or
    /// for a packing with a different number of trees.
    pub fn run_planned(
        &self,
        net: &mut Network,
        packing: &TreePacking,
        plan: &SchedulePlan,
        rounds_per_protocol: usize,
    ) -> FamilyRunReport {
        assert_eq!(
            plan.edge_count(),
            net.graph().edge_count(),
            "schedule plan was built for a different graph"
        );
        let k = packing.len();
        assert_eq!(
            plan.trees, k,
            "schedule plan was built for a packing of {} trees, but the packing passed in has {k}",
            plan.trees
        );
        let r = rounds_per_protocol.max(1);
        let total_rounds = T_RS * r * plan.eta();
        let mut corrupted = vec![0usize; k];
        let mut rounds = SlotRounds::new(plan);
        for round in 0..total_rounds {
            rounds.run(net, round, &mut corrupted);
        }

        FamilyRunReport::of(&corrupted, r, total_rounds)
    }

    /// The Lemma 3.3 bound on the number of failing instances for a mobile
    /// adversary controlling `f` edges per round: `t_RS · c_RS · f · η`.
    pub fn failure_bound(f: usize, eta: usize) -> usize {
        T_RS * C_RS * f * eta
    }
}

/// Helper for experiments: which of the packing's trees avoid a given set of
/// corrupted edges entirely (the "fault-free trees" a *static* adversary would
/// leave behind; used by baselines).
pub fn trees_avoiding_edges(packing: &TreePacking, g: &Graph, corrupted: &[EdgeId]) -> Vec<usize> {
    let _ = g;
    (0..packing.len())
        .filter(|&i| {
            packing.trees[i]
                .edges
                .iter()
                .all(|e| !corrupted.contains(e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::adversary::{
        AdaptiveHeaviest, AdversaryRole, AdversaryStrategy, CorruptionBudget, CorruptionMode,
        EclipseNode, GreedyHeaviest, RandomMobile, SweepMobile,
    };
    use congest_sim::scenario::matrix::graph_zoo_defs;
    use netgraph::tree_packing::{
        augmented_low_depth_packing, greedy_low_depth_packing, star_packing,
    };
    use netgraph::{generators, GraphDef};

    /// The pre-template `run_planned`, kept as the oracle: every round is
    /// rebuilt with `Traffic::send` from the packing's own occupancy lists.
    fn run_by_send(
        net: &mut Network,
        packing: &TreePacking,
        rounds_per_protocol: usize,
    ) -> FamilyRunReport {
        let g = net.shared_graph();
        let users: Vec<Vec<usize>> = (0..g.edge_count())
            .map(|e| packing.trees_using_edge(e))
            .collect();
        let eta = packing.load(&g).max(1);
        let k = packing.len();
        let r = rounds_per_protocol.max(1);
        let total_rounds = T_RS * r * eta;
        let mut corrupted = vec![0usize; k];
        let mut traffic = Traffic::new(&g);
        let mut owner_of_edge: Vec<Option<usize>> = vec![None; g.edge_count()];
        for round in 0..total_rounds {
            let slot = round % eta;
            traffic.begin_round(&g);
            owner_of_edge.fill(None);
            for (e, users) in users.iter().enumerate() {
                if let Some(&tree_idx) = users.get(slot) {
                    owner_of_edge[e] = Some(tree_idx);
                    let edge = g.edge(e);
                    let word = [tree_idx as u64, round as u64];
                    traffic.send(&g, edge.u, edge.v, word);
                    traffic.send(&g, edge.v, edge.u, word);
                }
            }
            net.exchange_in_place(&mut traffic);
            if let Some(edges) = net.corruption_history().last() {
                for &e in edges {
                    if let Some(tree_idx) = owner_of_edge[e] {
                        corrupted[tree_idx] += 1;
                    }
                }
            }
        }
        FamilyRunReport::of(&corrupted, r, total_rounds)
    }

    fn small_world() -> Graph {
        GraphDef::watts_strogatz(24, 6, 0.2, 2024 ^ 0x5A11)
            .build()
            .expect("zoo small world builds")
    }

    /// The three packing kinds of the tree compilers, on zoo graphs.
    fn packings() -> Vec<(Graph, TreePacking)> {
        let clique = generators::complete(12);
        let circulant = generators::circulant(18, 4);
        let small_world = small_world();
        vec![
            (clique.clone(), star_packing(&clique, 0)),
            (
                circulant.clone(),
                greedy_low_depth_packing(&circulant, 0, 9, 2),
            ),
            (
                small_world.clone(),
                augmented_low_depth_packing(&small_world, 0, 9, 2),
            ),
        ]
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

    #[test]
    fn template_rounds_equal_the_send_built_rounds() {
        let f = 2;
        for (g, packing) in packings() {
            let plan = SchedulePlan::new(&g, &packing);
            for mode in [CorruptionMode::ReplaceRandom, CorruptionMode::Drop] {
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
                    // Two calls back to back: the second starts from a
                    // non-zero network round and adversary state.
                    for r in [7, 3] {
                        let got = RsScheduler.run_planned(&mut fast_net, &packing, &plan, r);
                        let want = run_by_send(&mut slow_net, &packing, r);
                        assert_eq!(got, want, "{name} {mode:?} r={r}");
                    }
                    assert_eq!(fast_net.metrics(), slow_net.metrics(), "{name} {mode:?}");
                    assert!(fast_net.metrics().corrupted_messages > 0, "{name} {mode:?}");
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
    fn flat_plan_agrees_with_the_packing_on_the_zoo() {
        for def in graph_zoo_defs(2024) {
            let g = def.build().expect("zoo graph builds");
            let mut packings = vec![
                greedy_low_depth_packing(&g, 0, 9, 2),
                augmented_low_depth_packing(&g, 0, 9, 2),
            ];
            if g.edge_count() == g.node_count() * (g.node_count() - 1) / 2 {
                packings.push(star_packing(&g, 0));
            }
            for packing in packings {
                let plan = SchedulePlan::new(&g, &packing);
                assert_eq!(plan.eta(), packing.load(&g).max(1));
                let mut scheduled = 0;
                for e in 0..g.edge_count() {
                    let users = packing.trees_using_edge(e);
                    let flat: Vec<usize> =
                        plan.trees_on_edge(e).iter().map(|&t| t as usize).collect();
                    assert_eq!(flat, users, "{} edge {e}", def.display_name());
                    for slot in 0..plan.eta() {
                        assert_eq!(plan.owner(e, slot), users.get(slot).copied());
                    }
                    scheduled += users.len();
                }
                // Slot-major: the same incidences, each slot in edge order.
                let mut listed = 0;
                for slot in 0..plan.eta() {
                    let entries = plan.slot(slot);
                    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
                    for &(e, tree) in entries {
                        assert_eq!(plan.owner(e as usize, slot), Some(tree as usize));
                    }
                    listed += entries.len();
                }
                assert_eq!(listed, scheduled);
            }
        }
    }

    #[test]
    fn a_repeated_tree_edge_is_scheduled_once_but_counts_towards_eta() {
        let g = generators::path(3);
        let mut tree = netgraph::spanning::bfs_tree(&g, 0);
        tree.edges.push(tree.edges[0]);
        let packing = TreePacking::new(vec![tree]);
        let plan = SchedulePlan::new(&g, &packing);
        assert_eq!(plan.eta(), packing.load(&g));
        assert_eq!(plan.eta(), 2);
        for e in 0..g.edge_count() {
            assert_eq!(plan.trees_on_edge(e), &[0]);
        }
        assert!(plan.slot(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "packing of 12 trees, but the packing passed in has 3")]
    fn plan_for_another_packing_is_rejected_by_name() {
        let g = generators::complete(12);
        let full = star_packing(&g, 0);
        let plan = SchedulePlan::new(&g, &full);
        let fewer = TreePacking::new(full.trees[..3].to_vec());
        RsScheduler.run_planned(&mut Network::fault_free(g), &fewer, &plan, 4);
    }

    #[test]
    fn steady_state_scheduled_rounds_do_not_grow_the_buffers() {
        let g = small_world();
        let packing = augmented_low_depth_packing(&g, 0, 9, 2);
        let plan = SchedulePlan::new(&g, &packing);
        let mut net = Network::new(
            g,
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(3, 5)),
            CorruptionBudget::Mobile { f: 3 },
            5,
        );
        let mut corrupted = vec![0usize; packing.len()];
        let mut rounds = SlotRounds::new(&plan);
        for round in 0..20 {
            rounds.run(&mut net, round, &mut corrupted);
        }
        let traffic_cap = rounds.traffic.word_capacity();
        let engine_cap = net.round_buffer_capacity();
        for round in 20..520 {
            rounds.run(&mut net, round, &mut corrupted);
        }
        assert_eq!(rounds.traffic.word_capacity(), traffic_cap, "arena regrew");
        assert_eq!(net.round_buffer_capacity(), engine_cap, "engine regrew");
        assert!(corrupted.iter().sum::<usize>() > 0);
    }

    #[test]
    fn fault_free_schedule_succeeds_everywhere() {
        let g = generators::complete(8);
        let packing = star_packing(&g, 0);
        let plan = SchedulePlan::new(&g, &packing);
        let mut net = Network::fault_free(g);
        let report = RsScheduler.run_planned(&mut net, &packing, &plan, 6);
        assert_eq!(report.success_count(), packing.len());
        assert_eq!(report.rounds_used, T_RS * 6 * 2);
        assert_eq!(net.round(), report.rounds_used);
    }

    #[test]
    fn mobile_adversary_fails_only_boundedly_many_trees() {
        let g = generators::complete(12);
        let packing = star_packing(&g, 0);
        let eta = packing.load(&g);
        let f = 3;
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(f, 11)),
            CorruptionBudget::Mobile { f },
            11,
        );
        let report =
            RsScheduler.run_planned(&mut net, &packing, &SchedulePlan::new(&g, &packing), 10);
        let failures = packing.len() - report.success_count();
        assert!(
            failures <= RsScheduler::failure_bound(f, eta),
            "failures {failures} exceed the Lemma 3.3 bound {}",
            RsScheduler::failure_bound(f, eta)
        );
        // The adversary did act.
        assert!(net.metrics().corrupted_edge_rounds > 0);
    }

    #[test]
    fn sweeping_adversary_cannot_kill_a_majority_on_the_clique() {
        // Even an adversary that deliberately cycles over all edges cannot fail
        // more than the bound when f is small relative to k/η.
        let g = generators::complete(16);
        let packing = star_packing(&g, 0);
        let f = 2;
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(SweepMobile::new(f)),
            CorruptionBudget::Mobile { f },
            3,
        );
        let report =
            RsScheduler.run_planned(&mut net, &packing, &SchedulePlan::new(&g, &packing), 12);
        assert!(
            report.success_count() * 2 > packing.len(),
            "majority of instances must survive"
        );
    }

    #[test]
    fn greedy_packing_schedule_on_circulant() {
        let g = generators::circulant(14, 3);
        let packing = greedy_low_depth_packing(&g, 0, 5, 2);
        let f = 1;
        let mut net = Network::new(
            g.clone(),
            AdversaryRole::Byzantine,
            Box::new(RandomMobile::new(f, 5)),
            CorruptionBudget::Mobile { f },
            5,
        );
        let report =
            RsScheduler.run_planned(&mut net, &packing, &SchedulePlan::new(&g, &packing), 8);
        let eta = packing.load(&g);
        assert!(packing.len() - report.success_count() <= RsScheduler::failure_bound(f, eta));
    }

    #[test]
    fn trees_avoiding_edges_identifies_clean_trees() {
        let g = generators::complete(6);
        let packing = star_packing(&g, 0);
        // Corrupt two edges far from the root: the star centred at 1 uses (1,2),
        // and the star centred at 4 uses (4,5); both become dirty, while the
        // stars centred at 0 and 3 avoid both corrupted edges.
        let corrupted: Vec<EdgeId> =
            vec![g.edge_between(1, 2).unwrap(), g.edge_between(4, 5).unwrap()];
        let clean = trees_avoiding_edges(&packing, &g, &corrupted);
        assert!(clean.contains(&0));
        assert!(clean.contains(&3));
        assert!(!clean.contains(&1));
        assert!(!clean.contains(&4));
        for &i in &clean {
            for &e in &packing.trees[i].edges {
                assert!(!corrupted.contains(&e));
            }
        }
    }
}
