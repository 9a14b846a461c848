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
/// `(graph, packing)` pair: the per-edge tree occupancy lists and the
/// packing's load `η`.
///
/// Building the plan is `O(k·m)`, and the byzantine compilers run the same
/// family many times per execution (once per simulated round plus once per
/// safe-broadcast chunk), so callers build it once per packing — ideally in
/// `Compiler::prepare`, where the campaign artifact cache then shares it
/// across every `(seed, adversary)` cell.  The plan carries no randomness
/// and no network state.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    /// For every edge, the (ordered) list of trees that use it.
    users: Vec<Vec<usize>>,
    /// The packing's maximum edge load `η` (at least 1).
    eta: usize,
}

impl SchedulePlan {
    /// Build the plan for `packing` over `g`.
    pub fn new(g: &Graph, packing: &TreePacking) -> Self {
        let users = (0..g.edge_count())
            .map(|e| packing.trees_using_edge(e))
            .collect();
        SchedulePlan {
            users,
            eta: packing.load(g).max(1),
        }
    }

    /// The packing's maximum edge load `η` (≥ 1), as scheduled.
    pub fn eta(&self) -> usize {
        self.eta
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
    /// * in every scheduled round each tree edge carries a one-word message of
    ///   the instance scheduled on it, so the adversary faces the real traffic
    ///   pattern of Lemma 3.3,
    /// * each corruption is attributed to the instance whose message occupied
    ///   the corrupted edge; an instance fails once its attributed corruption
    ///   reaches `max(1, r / c_RS)` messages (the Theorem 3.2 threshold).
    ///
    /// Returns which instances ended correctly.  What the surviving instances
    /// *compute* is up to the caller (the compiler applies the corresponding
    /// fault-free result to successful trees and treats failed trees as
    /// adversarially controlled).
    ///
    /// The scheduled rounds reuse one traffic buffer (`begin_round` +
    /// `exchange_in_place`, the zero-allocation engine path), so the steady
    /// state allocates nothing per round.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for a graph with a different edge count.
    pub fn run_planned(
        &self,
        net: &mut Network,
        packing: &TreePacking,
        plan: &SchedulePlan,
        rounds_per_protocol: usize,
    ) -> FamilyRunReport {
        let g = net.graph().clone();
        assert_eq!(
            plan.users.len(),
            g.edge_count(),
            "schedule plan was built for a different graph"
        );
        let k = packing.len();
        let eta = plan.eta;
        let r = rounds_per_protocol.max(1);
        let total_rounds = T_RS * r * eta;
        let mut corrupted = vec![0usize; k];
        let mut traffic = Traffic::new(&g);
        let mut owner_of_edge: Vec<Option<usize>> = vec![None; g.edge_count()];

        for round in 0..total_rounds {
            let slot = round % eta;
            // Build the round's traffic: edge e carries (a word tagged with) the
            // instance users[e][slot], if such an instance exists.
            traffic.begin_round(&g);
            owner_of_edge.fill(None);
            for (e, users) in plan.users.iter().enumerate() {
                if let Some(&tree_idx) = users.get(slot) {
                    owner_of_edge[e] = Some(tree_idx);
                    let edge = g.edge(e);
                    let word = [tree_idx as u64, round as u64];
                    traffic.send(&g, edge.u, edge.v, word);
                    traffic.send(&g, edge.v, edge.u, word);
                }
            }
            net.exchange_in_place(&mut traffic);
            // Attribute this round's corruptions.
            if let Some(edges) = net.corruption_history().last() {
                for &e in edges {
                    if let Some(tree_idx) = owner_of_edge[e] {
                        corrupted[tree_idx] += 1; // one controlled edge-round of this instance
                    }
                }
            }
        }

        let threshold = (r / C_RS).max(1);
        let per_tree = (0..k)
            .map(|tree| TreeRunReport {
                tree,
                corrupted_messages: corrupted[tree],
                ok: corrupted[tree] < threshold,
            })
            .collect();
        FamilyRunReport {
            per_tree,
            rounds_used: total_rounds,
        }
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
    use congest_sim::adversary::{AdversaryRole, CorruptionBudget, RandomMobile, SweepMobile};
    use netgraph::generators;
    use netgraph::tree_packing::{greedy_low_depth_packing, star_packing};

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
