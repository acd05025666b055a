//! Exact-size simple-path enumeration.
//!
//! The paper proves (§3.1.2) that finding the widest *exact n-hop* path is
//! NP-complete, and its ELPC-rate algorithm is therefore a heuristic. To
//! quantify that heuristic's optimality gap (experiment E8, the
//! `ablation_gap` binary and the `heuristic_gap` bench) we
//! need ground truth on small instances, which this module provides by
//! depth-first enumeration of all simple paths with an exact node count,
//! pruned by reverse-BFS hop distances.
//!
//! Enumeration is exponential in the worst case by necessity; callers bound
//! the work with the `limit` parameter and instance sizes.

use super::bfs::hop_distances_rev;
use crate::{Graph, NodeId};

/// Outcome of a single path visit, controlling enumeration flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathVisit {
    /// Keep enumerating.
    Continue,
    /// Stop the whole enumeration (e.g. a good-enough path was found).
    Stop,
}

/// Calls `visit` for every simple path from `src` to `dst` containing
/// exactly `nodes` nodes (i.e. `nodes - 1` hops). Paths are reported as node
/// slices in travel order. Returns the number of paths visited.
///
/// `nodes == 1` matches only the trivial path when `src == dst`.
///
/// Pruning: a branch at node `u` with `r` nodes still to place is abandoned
/// when the hop distance from `u` to `dst` exceeds `r - 1`, which is
/// admissible because BFS distance lower-bounds every simple path length.
pub fn for_each_simple_path_exact_nodes<N, E>(
    g: &Graph<N, E>,
    src: NodeId,
    dst: NodeId,
    nodes: usize,
    mut visit: impl FnMut(&[NodeId]) -> PathVisit,
) -> usize {
    if g.check_node(src).is_err() || g.check_node(dst).is_err() || nodes == 0 {
        return 0;
    }
    if nodes == 1 {
        if src == dst && visit(&[src]) == PathVisit::Stop {
            return 1;
        }
        return usize::from(src == dst);
    }
    if src == dst {
        // a simple path with >= 2 nodes cannot start and end at the same node
        return 0;
    }
    let dist_to_dst = hop_distances_rev(g, dst);
    let mut on_path = vec![false; g.node_count()];
    let mut path = Vec::with_capacity(nodes);
    path.push(src);
    on_path[src.index()] = true;
    let mut count = 0usize;
    dfs(
        g,
        dst,
        nodes,
        &dist_to_dst,
        &mut on_path,
        &mut path,
        &mut count,
        &mut visit,
    );
    count
}

#[allow(clippy::too_many_arguments)]
fn dfs<N, E>(
    g: &Graph<N, E>,
    dst: NodeId,
    nodes: usize,
    dist_to_dst: &[Option<u32>],
    on_path: &mut [bool],
    path: &mut Vec<NodeId>,
    count: &mut usize,
    visit: &mut impl FnMut(&[NodeId]) -> PathVisit,
) -> PathVisit {
    let u = *path.last().expect("path never empty during DFS");
    if path.len() == nodes {
        if u == dst {
            *count += 1;
            return visit(path);
        }
        return PathVisit::Continue;
    }
    let remaining_hops = (nodes - path.len()) as u32;
    for nb in g.neighbors(u) {
        let v = nb.node;
        if on_path[v.index()] {
            continue;
        }
        // admissible prune: v must still be able to reach dst in the budget
        match dist_to_dst[v.index()] {
            Some(d) if d < remaining_hops => {}
            _ => continue,
        }
        // dst may only appear as the final node
        if v == dst && path.len() + 1 != nodes {
            continue;
        }
        on_path[v.index()] = true;
        path.push(v);
        let flow = dfs(g, dst, nodes, dist_to_dst, on_path, path, count, visit);
        path.pop();
        on_path[v.index()] = false;
        if flow == PathVisit::Stop {
            return PathVisit::Stop;
        }
    }
    PathVisit::Continue
}

/// Collects up to `limit` simple paths with exactly `nodes` nodes.
pub fn all_simple_paths_exact_nodes<N, E>(
    g: &Graph<N, E>,
    src: NodeId,
    dst: NodeId,
    nodes: usize,
    limit: usize,
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    for_each_simple_path_exact_nodes(g, src, dst, nodes, |p| {
        out.push(p.to_vec());
        if out.len() >= limit {
            PathVisit::Stop
        } else {
            PathVisit::Continue
        }
    });
    out
}

/// Counts simple paths with exactly `nodes` nodes, stopping at `cap`.
pub fn count_simple_paths_exact_nodes<N, E>(
    g: &Graph<N, E>,
    src: NodeId,
    dst: NodeId,
    nodes: usize,
    cap: usize,
) -> usize {
    let mut seen = 0usize;
    for_each_simple_path_exact_nodes(g, src, dst, nodes, |_| {
        seen += 1;
        if seen >= cap {
            PathVisit::Stop
        } else {
            PathVisit::Continue
        }
    });
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// K4 complete undirected graph.
    fn k4() -> (Graph<(), ()>, Vec<NodeId>) {
        let mut g = Graph::new();
        let ns: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_undirected_edge(ns[i], ns[j], ()).unwrap();
            }
        }
        (g, ns)
    }

    #[test]
    fn k4_path_counts_match_combinatorics() {
        let (g, ns) = k4();
        // paths 0→3 with exactly 2 nodes: the direct edge only
        assert_eq!(count_simple_paths_exact_nodes(&g, ns[0], ns[3], 2, 100), 1);
        // 3 nodes: 0-x-3 for x in {1,2} → 2 paths
        assert_eq!(count_simple_paths_exact_nodes(&g, ns[0], ns[3], 3, 100), 2);
        // 4 nodes: 0-a-b-3 with {a,b} a permutation of {1,2} → 2 paths
        assert_eq!(count_simple_paths_exact_nodes(&g, ns[0], ns[3], 4, 100), 2);
        // 5 nodes: impossible in a 4-node graph
        assert_eq!(count_simple_paths_exact_nodes(&g, ns[0], ns[3], 5, 100), 0);
    }

    #[test]
    fn paths_are_simple_and_have_exact_length() {
        let (g, ns) = k4();
        for p in all_simple_paths_exact_nodes(&g, ns[0], ns[3], 4, 100) {
            assert_eq!(p.len(), 4);
            assert_eq!(p.first(), Some(&ns[0]));
            assert_eq!(p.last(), Some(&ns[3]));
            let mut sorted = p.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "path revisits a node: {p:?}");
        }
    }

    #[test]
    fn trivial_single_node_path() {
        let (g, ns) = k4();
        assert_eq!(count_simple_paths_exact_nodes(&g, ns[0], ns[0], 1, 10), 1);
        // src == dst with more than one node: impossible for simple paths
        assert_eq!(count_simple_paths_exact_nodes(&g, ns[0], ns[0], 3, 10), 0);
    }

    #[test]
    fn limit_short_circuits_enumeration() {
        let (g, ns) = k4();
        let got = all_simple_paths_exact_nodes(&g, ns[0], ns[3], 3, 1);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn disconnected_destination_yields_no_paths() {
        let (mut g, ns) = k4();
        let lonely = g.add_node(());
        assert_eq!(count_simple_paths_exact_nodes(&g, ns[0], lonely, 3, 10), 0);
    }

    #[test]
    fn line_graph_has_exactly_one_maximal_path() {
        let mut g: Graph<(), ()> = Graph::new();
        let ns: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        for w in ns.windows(2) {
            g.add_undirected_edge(w[0], w[1], ()).unwrap();
        }
        assert_eq!(count_simple_paths_exact_nodes(&g, ns[0], ns[4], 5, 10), 1);
        // shorter exact sizes are impossible on a line
        for k in 1..5 {
            assert_eq!(count_simple_paths_exact_nodes(&g, ns[0], ns[4], k, 10), 0);
        }
    }

    #[test]
    fn directed_cycles_do_not_trap_the_enumerator() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(b, a, ()).unwrap(); // 2-cycle
        g.add_edge(b, c, ()).unwrap();
        assert_eq!(count_simple_paths_exact_nodes(&g, a, c, 3, 10), 1);
        assert_eq!(count_simple_paths_exact_nodes(&g, a, c, 4, 10), 0);
    }

    #[test]
    fn enumeration_agrees_with_unpruned_reference_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for trial in 0..20 {
            let n = rng.gen_range(3..7);
            let mut g: Graph<(), ()> = Graph::new();
            let ns: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.5) {
                        g.add_undirected_edge(ns[i], ns[j], ()).unwrap();
                    }
                }
            }
            for k in 1..=n {
                let fast = count_simple_paths_exact_nodes(&g, ns[0], ns[n - 1], k, 10_000);
                let slow = reference_count(&g, ns[0], ns[n - 1], k);
                assert_eq!(fast, slow, "trial {trial}, k={k}");
            }
        }
    }

    /// Unpruned exponential reference enumerator.
    fn reference_count(g: &Graph<(), ()>, src: NodeId, dst: NodeId, nodes: usize) -> usize {
        fn go(
            g: &Graph<(), ()>,
            cur: NodeId,
            dst: NodeId,
            left: usize,
            used: &mut Vec<NodeId>,
        ) -> usize {
            if left == 0 {
                return usize::from(cur == dst);
            }
            let mut total = 0;
            for nb in g.neighbors(cur) {
                if used.contains(&nb.node) {
                    continue;
                }
                used.push(nb.node);
                total += go(g, nb.node, dst, left - 1, used);
                used.pop();
            }
            total
        }
        if nodes == 0 {
            return 0;
        }
        let mut used = vec![src];
        go(g, src, dst, nodes - 1, &mut used)
    }
}
