//! Property-based tests for the graph substrate.

use netgraph::connectivity::{edge_connectivity, edge_disjoint_path_count, edge_disjoint_paths};
use netgraph::cycle_cover::FtCycleCover;
use netgraph::generators;
use netgraph::graph::Graph;
use netgraph::spanning::bfs_tree;
use netgraph::traversal::{bfs, is_connected};
use netgraph::tree_packing::{
    augmented_low_depth_packing, greedy_low_depth_packing, load_floor, star_packing, PackingQuality,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    // Build a random connected graph: a random spanning path + extra random edges.
    (3usize..24, any::<u64>(), 0.0f64..0.6).prop_map(|(n, seed, extra_p)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = generators::path(n);
        let er = generators::erdos_renyi(&mut rng, n, extra_p);
        for e in er.edges() {
            g.add_edge(e.u, e.v);
        }
        g
    })
}

fn arb_any_graph() -> impl Strategy<Value = Graph> {
    // Plain Erdős–Rényi from a single node up: sparse draws are disconnected.
    (1usize..20, any::<u64>(), 0.0f64..0.9).prop_map(|(n, seed, p)| {
        generators::erdos_renyi(&mut ChaCha8Rng::seed_from_u64(seed), n, p)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(g in arb_connected_graph()) {
        let r = bfs(&g, 0);
        for e in g.edges() {
            let du = r.dist[e.u].unwrap();
            let dv = r.dist[e.v].unwrap();
            prop_assert!(du.abs_diff(dv) <= 1, "adjacent nodes differ by more than 1");
        }
    }

    #[test]
    fn bfs_tree_is_spanning_and_shortest(g in arb_connected_graph()) {
        prop_assert!(is_connected(&g));
        let t = bfs_tree(&g, 0);
        prop_assert!(t.is_spanning(&g));
        let d = bfs(&g, 0);
        let depths = t.depths();
        for v in g.nodes() {
            prop_assert_eq!(depths[v].unwrap(), d.dist[v].unwrap());
        }
    }

    #[test]
    fn edge_connectivity_at_most_min_degree(g in arb_connected_graph()) {
        let lambda = edge_connectivity(&g);
        prop_assert!(lambda >= 1);
        prop_assert!(lambda <= g.min_degree());
    }

    #[test]
    fn threshold_connectivity_is_the_exact_value_compared(g in arb_any_graph(), k in 0usize..=6) {
        // The memoised cut against `min_v` of the decomposed `0 → v` flows.
        let exact = (1..g.node_count())
            .map(|v| edge_disjoint_path_count(&g, 0, v))
            .min()
            .unwrap_or(0);
        prop_assert_eq!(edge_connectivity(&g), exact);
        prop_assert_eq!(g.min_cut().len() >= k, exact >= k);
    }

    #[test]
    fn disjoint_paths_are_edge_disjoint(g in arb_connected_graph(), a in 0usize..24, b in 0usize..24) {
        let n = g.node_count();
        let (a, b) = (a % n, b % n);
        if a != b {
            let paths = edge_disjoint_paths(&g, a, b, 4);
            let mut used = std::collections::HashSet::new();
            for p in &paths {
                prop_assert_eq!(p[0], a);
                prop_assert_eq!(*p.last().unwrap(), b);
                for w in p.windows(2) {
                    let e = g.edge_between(w[0], w[1]).expect("path uses a non-edge");
                    prop_assert!(used.insert(e), "edge reused across disjoint paths");
                }
            }
        }
    }

    #[test]
    fn greedy_packing_trees_span_and_height_bounded(g in arb_connected_graph(), k in 1usize..5) {
        let p = greedy_low_depth_packing(&g, 0, k, 2);
        let diam = g.diameter().unwrap();
        for t in &p.trees {
            prop_assert!(t.is_spanning(&g));
            prop_assert!(t.height() <= g.node_count().max(diam));
        }
        prop_assert!(p.load(&g) <= k);
    }

    #[test]
    fn augmented_packing_never_worse_than_greedy(g in arb_connected_graph(), k in 2usize..10) {
        // The v2 contract: relative to the v1 greedy packing it starts from,
        // the repair pass never raises the maximum edge load, never lowers
        // the good-tree count, keeps every tree spanning, and never drops
        // below the information-theoretic load floor.
        let v1 = greedy_low_depth_packing(&g, 0, k, 2);
        let v2 = augmented_low_depth_packing(&g, 0, k, 2);
        prop_assert_eq!(v2.len(), v1.len());
        prop_assert!(v2.load(&g) <= v1.load(&g), "v2 raised the load");
        prop_assert!(v2.load(&g) >= load_floor(&g, k), "load floor is a true floor");
        for t in &v2.trees {
            prop_assert!(t.is_spanning(&g), "v2 lost a spanning tree");
            prop_assert_eq!(t.root, 0);
        }
        let diam = g.diameter().unwrap();
        let budget = 3 * diam + 2; // the v2 construction budget incl. slack
        let q1 = PackingQuality::measure(&g, &v1, 0, budget);
        let q2 = PackingQuality::measure(&g, &v2, 0, budget);
        prop_assert!(q2.good_trees >= q1.good_trees, "v2 lowered the good-tree count");
        prop_assert!(q2.max_edge_load <= q1.max_edge_load);
        prop_assert!(q2.min_cut_usage >= q2.good_trees, "every good tree crosses the min cut");
        prop_assert_eq!(q2.load_floor, load_floor(&g, k));
    }

    #[test]
    fn star_packing_properties(n in 3usize..20, root in 0usize..20) {
        let root = root % n;
        let g = generators::complete(n);
        let p = star_packing(&g, root);
        prop_assert_eq!(p.len(), n);
        prop_assert_eq!(p.load(&g), 2);
        prop_assert!(p.max_height() <= 2);
        prop_assert!(p.is_weak_packing(&g, root, 2, 2));
    }

    #[test]
    fn cycle_cover_respects_connectivity(g in arb_connected_graph()) {
        let lambda = edge_connectivity(&g);
        if lambda >= 2 {
            let cover = FtCycleCover::build(&g, 2).expect("2-connected graph must have a 2-FT cover");
            prop_assert!(cover.verify(&g));
            let coloring = cover.good_coloring(&g);
            prop_assert!(netgraph::cycle_cover::verify_good_coloring(&cover, &g, &coloring));
        }
        // Asking for more paths than the connectivity supports must fail.
        prop_assert!(FtCycleCover::build(&g, g.min_degree() + 1).is_none());
    }
}
