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
//! failed once its attributed corruption reaches the RS threshold.  No
//! transport executes Theorem 3.2: no tree code or other interactive coding
//! runs, so "ends correctly" below the threshold is assumed, not computed.

use congest_sim::network::{Network, PatternRounds, RoundPatterns};
use netgraph::tree_packing::TreePacking;
use netgraph::{ArcId, EdgeId, Graph};

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
///   edge order, which is what a scheduled round's traffic consists of.
///
/// Building the plan is one pass over the trees' edge lists, and the
/// byzantine compilers run the same family many times per execution (once per
/// simulated round plus once per safe-broadcast chunk), so callers build it
/// once per packing — in `Compiler::prepare`, where the campaign artifact
/// cache then shares it across every `(seed, adversary)` cell.  The plan
/// carries no randomness, no network state and **no traffic**: it only
/// *describes* a slot's round to the network (its [`RoundPatterns`]
/// implementation), and [`RsScheduler::run_in`] builds none either.
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

/// Lemma 3.3's traffic as the round engine's pattern description: pattern `s`
/// is slot `s`, and in a round of the slot tagged `i` both arcs of every edge
/// `e` the slot schedules carry `[owner(e, s), i]`.
impl RoundPatterns for SchedulePlan {
    fn count(&self) -> usize {
        self.eta()
    }

    fn lens(&self, slot: usize) -> impl Iterator<Item = (ArcId, usize)> + '_ {
        // Both arcs of every scheduled edge, as one flat range (cheaper to
        // walk than a `flat_map`; a call walks every slot twice).
        let entries = self.slot(slot);
        (0..2 * entries.len()).map(move |i| {
            let (fwd, bwd) = Graph::arcs_of(entries[i / 2].0 as EdgeId);
            (if i.is_multiple_of(2) { fwd } else { bwd }, 2)
        })
    }

    fn arc_len(&self, slot: usize, arc: ArcId) -> Option<usize> {
        self.owner(Graph::edge_of(arc), slot).map(|_| 2)
    }

    fn arc_words(&self, slot: usize, arc: ArcId, tag: u64, out: &mut Vec<u64>) -> bool {
        match self.owner(Graph::edge_of(arc), slot) {
            Some(tree) => {
                out.extend([tree as u64, tag]);
                true
            }
            None => false,
        }
    }
}

/// The Lemma 3.3 scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct RsScheduler;

impl RsScheduler {
    /// Run one RS-compiled protocol per tree of `packing`, all in parallel, on
    /// the network, through the [`SchedulePlan`] built for `(graph, packing)`:
    /// [`RsScheduler::run_in`] in a pattern scope of its own, opened on `net`
    /// for this one call and settled when it returns.
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
        let k = packing.len();
        assert_eq!(
            plan.trees, k,
            "schedule plan was built for a packing of {} trees, but the packing passed in has {k}",
            plan.trees
        );
        let mut rounds = net.pattern_rounds(plan);
        self.run_in(&mut rounds, rounds_per_protocol, &mut Vec::new())
    }

    /// Run one RS-compiled protocol per tree of the scope's plan, all in
    /// parallel, as rounds of the open pattern scope `rounds`:
    ///
    /// * `rounds_per_protocol` — the round complexity `r` of each individual
    ///   (uncompiled) tree protocol (e.g. `Θ(D_TP + sketch words)`),
    /// * the schedule executes `T_RS · r · η` network rounds where
    ///   `η = max_e |{trees using e}|` (the packing's load, at least 1),
    ///   tagged `0, 1, …` and cycling through the slots,
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
    /// adversarially controlled).  `corrupted` is the per-tree counter
    /// scratch, reset here, so a caller running many families keeps one.
    ///
    /// # Pattern rounds
    ///
    /// The call builds no traffic.  The plan *describes* each slot's round to
    /// the network ([`RoundPatterns`]) and every round runs as a pattern round
    /// ([`Network::pattern_rounds`]): the whole round engine — strategy, budget
    /// clamp, corruption randomness, history, view log, metrics, trace spans —
    /// as for any other round, but only the arcs the adversary controls are
    /// ever materialised, so a round costs `O(f)` instead of `O(m)`.  That is
    /// sound because nothing reads a scheduled round's deliveries: under the
    /// Theorem 3.2 oracle semantics (module docs) an instance's fate is
    /// decided by *where* the adversary struck, which is all this loop takes
    /// from a round.  Families run back to back in one scope are the same
    /// rounds as families run in a scope each: the scope settles their traffic
    /// volume (a sum over rounds) when it drops, and a slot keeps one
    /// [`congest_sim::adversary::PatternId`] throughout (its shape never
    /// changes).  The call allocates only its report.
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a graph with a different edge count.
    pub fn run_in(
        &self,
        rounds: &mut PatternRounds<'_, SchedulePlan>,
        rounds_per_protocol: usize,
        corrupted: &mut Vec<usize>,
    ) -> FamilyRunReport {
        let plan = rounds.patterns();
        assert_eq!(
            plan.edge_count(),
            rounds.graph().edge_count(),
            "schedule plan was built for a different graph"
        );
        let r = rounds_per_protocol.max(1);
        let eta = plan.eta();
        let total_rounds = T_RS * r * eta;
        corrupted.clear();
        corrupted.resize(plan.trees, 0);
        let mut slot = 0;
        for round in 0..total_rounds {
            for &e in rounds.exchange(slot, round as u64) {
                if let Some(tree) = plan.owner(e, slot) {
                    corrupted[tree] += 1;
                }
            }
            slot += 1;
            if slot == eta {
                slot = 0;
            }
        }
        FamilyRunReport::of(corrupted, r, total_rounds)
    }

    /// The Lemma 3.3 bound on the number of failing instances for a mobile
    /// adversary controlling `f` edges per round: `t_RS · c_RS · f · η`.
    pub fn failure_bound(f: usize, eta: usize) -> usize {
        T_RS * C_RS * f * eta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::adversary::{
        AdaptiveHeaviest, AdversaryRole, AdversaryStrategy, BurstAdversary, CorruptionBudget,
        CorruptionMode, EclipseNode, FixedEdges, GreedyHeaviest, RandomMobile, SweepMobile,
    };
    use congest_sim::scenario::matrix::graph_zoo_defs;
    use congest_sim::traffic::Traffic;
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
        let g = net.graph().clone();
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

    /// One adversary configuration of the oracle comparison.
    struct Case {
        role: AdversaryRole,
        budget: CorruptionBudget,
        strategy: Box<dyn AdversaryStrategy>,
    }

    /// Every strategy family under every corruption mode on a mobile budget,
    /// plus the budget shapes and the role the mobile cases do not reach.
    /// `k` is the packing's tree count and `m` the graph's edge count.
    fn cases(k: usize, m: usize) -> Vec<Case> {
        let f = 2;
        let mobile = |strategy: Box<dyn AdversaryStrategy>| Case {
            role: AdversaryRole::Byzantine,
            budget: CorruptionBudget::Mobile { f },
            strategy,
        };
        // `Constant(w)` with `w < k`: in the round `w` of a call, instance
        // `w`'s message is `[w, w]` — the one rewrite that changes nothing,
        // so `corrupted_messages` depends on the exact round word.
        let constant = CorruptionMode::Constant(k as u64 / 2);
        let mut cases = Vec::new();
        for mode in [
            CorruptionMode::ReplaceRandom,
            CorruptionMode::Drop,
            CorruptionMode::FlipLowBit,
            constant,
        ] {
            cases.push(mobile(Box::new(RandomMobile::new(f, 41).with_mode(mode))));
            cases.push(mobile(Box::new(SweepMobile::new(f).with_mode(mode))));
            cases.push(mobile(Box::new(GreedyHeaviest::new(f).with_mode(mode))));
            cases.push(mobile(Box::new(AdaptiveHeaviest::new(f).with_mode(mode))));
            cases.push(mobile(Box::new(EclipseNode::new(3, f).with_mode(mode))));
        }
        // The budget runs dry inside the first call.
        cases.push(Case {
            role: AdversaryRole::Byzantine,
            budget: CorruptionBudget::RoundErrorRate { total: 9 },
            strategy: Box::new(BurstAdversary::new(2, 3, 4, 23).with_mode(constant)),
        });
        let fixed = vec![0, m / 2, m - 1];
        cases.push(Case {
            role: AdversaryRole::Byzantine,
            budget: CorruptionBudget::Static(fixed.clone()),
            strategy: Box::new(FixedEdges::new(fixed).with_mode(CorruptionMode::FlipLowBit)),
        });
        cases.push(Case {
            role: AdversaryRole::Eavesdropper,
            budget: CorruptionBudget::Mobile { f },
            strategy: Box::new(RandomMobile::new(f, 41)),
        });
        cases
    }

    #[test]
    fn pattern_rounds_equal_the_send_built_rounds() {
        for (g, packing) in packings() {
            let plan = SchedulePlan::new(&g, &packing);
            let build = || cases(packing.len(), g.edge_count());
            for (pattern, send) in build().into_iter().zip(build()) {
                let name = format!(
                    "{} {:?} {:?} {:?}",
                    pattern.strategy.name(),
                    pattern.strategy.corruption_mode(),
                    pattern.budget,
                    pattern.role
                );
                let [mut pattern_net, mut send_net] = [pattern, send]
                    .map(|case| Network::new(g.clone(), case.role, case.strategy, case.budget, 17));
                // Two calls back to back: the second starts from a non-zero
                // network round and adversary state.
                for r in [7, 3] {
                    let got = RsScheduler.run_planned(&mut pattern_net, &packing, &plan, r);
                    let by_send = run_by_send(&mut send_net, &packing, r);
                    assert_eq!(got, by_send, "{name} r={r}");
                }
                assert!(pattern_net.metrics().corrupted_edge_rounds > 0, "{name}");
                assert_eq!(pattern_net.metrics(), send_net.metrics(), "{name}");
                assert_eq!(
                    pattern_net.corruption_history(),
                    send_net.corruption_history(),
                    "{name}"
                );
                assert_eq!(pattern_net.view_log(), send_net.view_log(), "{name}");
                assert_eq!(pattern_net.public_coin(), send_net.public_coin(), "{name}");
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
        // A scheduled round has no working `Traffic`; everything it touches
        // is the network's recycled scratch, which must stop growing.
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
        let run = |net: &mut Network, rounds: std::ops::Range<usize>| {
            let mut controlled = 0;
            let mut scope = net.pattern_rounds(&plan);
            for round in rounds {
                controlled += scope.exchange(round % plan.eta(), round as u64).len();
            }
            controlled
        };
        run(&mut net, 0..20);
        let engine_cap = net.round_buffer_capacity();
        assert!(engine_cap > 0);
        assert!(run(&mut net, 20..520) > 0);
        assert_eq!(net.round_buffer_capacity(), engine_cap, "engine regrew");
        assert_eq!(net.round(), 520);
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

    /// Lemma 3.3: over its `t_RS·r·η`-round window, an `f`-mobile adversary
    /// fails at most `t_RS·c_RS·f·η` of the packing's instances.
    #[test]
    fn mobile_adversary_fails_only_boundedly_many_trees() {
        for (n, f, seed) in [
            (12usize, 3usize, 11u64),
            (16, 1, 23),
            (16, 2, 23),
            (24, 3, 31),
            (32, 4, 39),
        ] {
            let g = generators::complete(n);
            let packing = star_packing(&g, 0);
            let eta = packing.load(&g);
            let mut net = Network::new(
                g.clone(),
                AdversaryRole::Byzantine,
                Box::new(RandomMobile::new(f, seed)),
                CorruptionBudget::Mobile { f },
                seed,
            );
            let report =
                RsScheduler.run_planned(&mut net, &packing, &SchedulePlan::new(&g, &packing), 10);
            assert_eq!(report.rounds_used, T_RS * 10 * eta, "K{n} f={f}");
            let failures = packing.len() - report.success_count();
            assert!(
                failures <= RsScheduler::failure_bound(f, eta),
                "K{n} f={f}: failures {failures} exceed the Lemma 3.3 bound {}",
                RsScheduler::failure_bound(f, eta)
            );
            // The adversary did act.
            assert!(net.metrics().corrupted_edge_rounds > 0, "K{n} f={f}");
        }
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

    /// Theorem 3.2's threshold at its boundary: an instance of round
    /// complexity `r` survives `max(1, r / c_RS) − 1` attributed corruptions
    /// and fails at `max(1, r / c_RS)`, with `c_RS = 2`.
    #[test]
    fn an_instance_fails_exactly_at_the_theorem_3_2_threshold() {
        for (r, threshold) in [(1, 1), (2, 1), (3, 1), (4, 2), (12, 6)] {
            let report = FamilyRunReport::of(&[threshold - 1, threshold], r, 0);
            let ok: Vec<bool> = report.per_tree.iter().map(|t| t.ok).collect();
            assert_eq!(ok, [true, false], "r={r}");
        }
    }

    /// What the oracle grants beyond uncoded delivery: per packing and `r`,
    /// the trees of the 22 Byzantine `cases()` that no corruption touched,
    /// that pass although struck (uncoded one-copy delivery would lose
    /// them), and that fail.
    #[test]
    fn oracle_leniency_on_the_zoo_packings_is_pinned() {
        let mut got = Vec::new();
        for (g, packing) in packings() {
            let plan = SchedulePlan::new(&g, &packing);
            for r in [4, 12] {
                let mut tally = [0; 3];
                for case in cases(packing.len(), g.edge_count()) {
                    if case.role != AdversaryRole::Byzantine {
                        continue;
                    }
                    let mut net =
                        Network::new(g.clone(), case.role, case.strategy, case.budget, 17);
                    for tree in RsScheduler
                        .run_planned(&mut net, &packing, &plan, r)
                        .per_tree
                    {
                        tally[match (tree.ok, tree.corrupted_messages) {
                            (true, 0) => 0,
                            (true, _) => 1,
                            (false, _) => 2,
                        }] += 1;
                    }
                }
                got.push(tally);
            }
        }
        assert_eq!(
            got,
            [
                // K12 star (k 12, η 2): r = 4, r = 12.
                [115, 73, 76],
                [83, 131, 50],
                // circulant(18, 4) greedy (k 9, η 3).
                [60, 33, 105],
                [48, 61, 89],
                // WS(24, 6, 0.2) augmented (k 9, η 3).
                [58, 21, 119],
                [58, 17, 123],
            ]
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
}
