//! Property-based tests for the graph substrate.
//!
//! These check the structural invariants that the mapping algorithms rely
//! on; see the crate docs for the invariant list.

use elpc_netgraph::algo::{
    count_simple_paths_exact_nodes, dijkstra, extract_path, hop_distances, hop_distances_rev,
};
use elpc_netgraph::gen::{self, Topology};
use elpc_netgraph::{Graph, NodeId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a connected random topology with 2..=12 nodes and a feasible
/// link budget, as a (nodes, links, seed) triple.
fn topo_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..=12, any::<u64>()).prop_flat_map(|(n, seed)| {
        let min = n - 1;
        let max = Topology::max_links(n);
        (Just(n), min..=max, Just(seed))
    })
}

fn build(n: usize, links: usize, seed: u64) -> Graph<(), f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let topo = gen::random_connected(n, links, &mut rng).expect("feasible budget");
    // deterministic pseudo-random positive weights derived from endpoints
    topo.into_graph(|_| (), |a, b| 0.5 + ((a * 31 + b * 17) % 97) as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_topologies_are_connected((n, links, seed) in topo_params()) {
        let g = build(n, links, seed);
        prop_assert!(elpc_netgraph::algo::is_connected(&g));
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), links * 2);
    }

    #[test]
    fn bfs_distance_is_a_lower_bound_for_dijkstra_hops((n, links, seed) in topo_params()) {
        let g = build(n, links, seed);
        let src = NodeId(0);
        let hops = hop_distances(&g, src);
        // Dijkstra with unit costs must equal BFS distances exactly
        let sp = dijkstra(&g, src, |_, _| 1.0);
        for v in g.node_ids() {
            match hops[v.index()] {
                Some(h) => prop_assert!((sp.dist[v.index()] - h as f64).abs() < 1e-9),
                None => prop_assert!(sp.dist[v.index()].is_infinite()),
            }
        }
    }

    #[test]
    fn forward_and_reverse_hops_agree_on_symmetric_graphs((n, links, seed) in topo_params()) {
        let g = build(n, links, seed);
        let t = NodeId((n as u32) - 1);
        prop_assert_eq!(hop_distances(&g, t), hop_distances_rev(&g, t));
    }

    #[test]
    fn dijkstra_paths_have_consistent_costs((n, links, seed) in topo_params()) {
        let g = build(n, links, seed);
        let src = NodeId(0);
        let sp = dijkstra(&g, src, |_, e| e.payload);
        for v in g.node_ids() {
            if let Some(path) = extract_path(&sp, src, v) {
                // recompute the path cost by summing the cheapest edge
                // between consecutive nodes; it can never beat sp.dist
                let mut cost = 0.0;
                for w in path.windows(2) {
                    let best = g
                        .neighbors(w[0])
                        .filter(|nb| nb.node == w[1])
                        .map(|nb| g.edge(nb.edge).unwrap().payload)
                        .fold(f64::INFINITY, f64::min);
                    cost += best;
                }
                prop_assert!(cost <= sp.dist[v.index()] + 1e-9);
            }
        }
    }

    #[test]
    fn exact_node_paths_never_exceed_node_count((n, links, seed) in topo_params()) {
        let g = build(n, links, seed);
        let (s, t) = (NodeId(0), NodeId((n as u32) - 1));
        // asking for more nodes than the graph has is always zero
        prop_assert_eq!(count_simple_paths_exact_nodes(&g, s, t, n + 1, 1000), 0);
    }

    #[test]
    fn topology_serialization_round_trips((n, links, seed) in topo_params()) {
        let g = build(n, links, seed);
        let json = serde_json::to_string(&g).unwrap();
        let g2: Graph<(), f64> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(g.node_count(), g2.node_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        for (id, e) in g.edges() {
            let e2 = g2.edge(id).unwrap();
            prop_assert_eq!(e.src, e2.src);
            prop_assert_eq!(e.dst, e2.dst);
            prop_assert_eq!(e.payload, e2.payload);
        }
    }
}
