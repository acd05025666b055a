//! Dijkstra single-source shortest paths with a caller-supplied edge cost.
//!
//! Used by the Greedy baseline (destination-aware relay routing) and by the
//! transport-time heuristics: the cost closure lets the same routine compute
//! hop counts, pure transport time `m/b + d`, or any other additive metric
//! without duplicating the traversal.

use crate::{Edge, EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a Dijkstra run: per-node distance and entering edge, 12 bytes
/// per node.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// `dist[v]` is the minimum additive cost from the source, `f64::INFINITY`
    /// when unreachable.
    pub dist: Vec<f64>,
    /// `prev[v]` is the id of the edge the best path enters `v` by, or
    /// [`ShortestPaths::NO_EDGE`] at the source and at unreachable nodes.
    /// The edge's tail is the predecessor: read it from the graph
    /// (`g.edge(e)?.src`). [`ShortestPaths::entering`] decodes the sentinel.
    pub prev: Vec<u32>,
}

impl ShortestPaths {
    /// The `prev` entry of the source and of unreachable nodes. Edge ids
    /// are `u32`, so a graph of `u32::MAX` edges or more is out of scope.
    pub const NO_EDGE: u32 = u32::MAX;

    /// The edge the best path enters `v` by; `None` at the source and at
    /// unreachable nodes.
    #[inline]
    pub fn entering(&self, v: usize) -> Option<EdgeId> {
        let e = self.prev[v];
        (e != Self::NO_EDGE).then_some(EdgeId(e))
    }

    /// Bytes of the per-node payload: 8 per distance plus 4 per entering
    /// edge.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.dist[..]) + std::mem::size_of_val(&self.prev[..])
    }
}

/// Max-heap entry ordered by *smallest* distance first.
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want min-dist on top
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("edge costs must not be NaN")
    }
}

/// Runs Dijkstra from `src`; `cost` maps each directed edge to a
/// non-negative, non-NaN additive cost. `+∞` is allowed and means "edge
/// removed": an infinite relaxation can never beat any retained distance,
/// so such edges are simply never taken (this is how failed links — the
/// `bw = 0` sentinel — route around).
///
/// # Panics
/// Panics (in debug builds) if `cost` returns a negative or NaN value — the
/// algorithm's correctness contract.
pub fn dijkstra<N, E>(
    g: &Graph<N, E>,
    src: NodeId,
    mut cost: impl FnMut(EdgeId, &Edge<E>) -> f64,
) -> ShortestPaths {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![ShortestPaths::NO_EDGE; n];
    if g.check_node(src).is_err() {
        return ShortestPaths { dist, prev };
    }
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u.index()] {
            continue; // stale entry
        }
        for (nb, e) in g.out_edges(u) {
            let w = cost(nb.edge, e);
            debug_assert!(
                w >= 0.0 && !w.is_nan(),
                "Dijkstra requires non-negative non-NaN costs, got {w}"
            );
            let nd = d + w;
            if nd < dist[nb.node.index()] {
                dist[nb.node.index()] = nd;
                prev[nb.node.index()] = nb.edge.0;
                heap.push(HeapEntry {
                    dist: nd,
                    node: nb.node,
                });
            }
        }
    }
    ShortestPaths { dist, prev }
}

/// Reconstructs the node sequence from `src` to `dst` out of the entering
/// edges of `sp`, a tree of `g`, reading each edge's tail from `g`; `None`
/// when `dst` is unreachable.
pub fn extract_path<N, E>(
    g: &Graph<N, E>,
    sp: &ShortestPaths,
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    if dst.index() >= sp.dist.len() || sp.dist[dst.index()].is_infinite() {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = g.edge(sp.entering(cur.index())?).ok()?.src;
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// Weighted test graph:
    /// 0 --1.0-- 1 --1.0-- 3
    ///  \                 /
    ///   --3.0-- 2 --0.5--
    fn diamond() -> (Graph<(), f64>, Vec<NodeId>) {
        let mut g = Graph::new();
        let ns: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_undirected_edge(ns[0], ns[1], 1.0).unwrap();
        g.add_undirected_edge(ns[1], ns[3], 1.0).unwrap();
        g.add_undirected_edge(ns[0], ns[2], 3.0).unwrap();
        g.add_undirected_edge(ns[2], ns[3], 0.5).unwrap();
        (g, ns)
    }

    #[test]
    fn finds_cheapest_route() {
        let (g, ns) = diamond();
        let sp = dijkstra(&g, ns[0], |_, e| e.payload);
        assert_eq!(sp.dist[3], 2.0); // via node 1
        let path = extract_path(&g, &sp, ns[0], ns[3]).unwrap();
        assert_eq!(path, vec![ns[0], ns[1], ns[3]]);
    }

    #[test]
    fn cost_closure_switches_the_metric() {
        let (g, ns) = diamond();
        // hop metric: both routes are 2 hops, dist = 2
        let sp = dijkstra(&g, ns[0], |_, _| 1.0);
        assert_eq!(sp.dist[3], 2.0);
        // inverted weights: 0-1-3 costs 1+1=2, 0-2-3 costs 1/3+2≈2.33
        let sp = dijkstra(&g, ns[0], |_, e| 1.0 / e.payload);
        assert!((sp.dist[3] - 2.0).abs() < 1e-9);
        let path = extract_path(&g, &sp, ns[0], ns[3]).unwrap();
        assert_eq!(path, vec![ns[0], ns[1], ns[3]]);
    }

    #[test]
    fn unreachable_nodes_have_infinite_distance_and_no_path() {
        let (mut g, ns) = diamond();
        let lonely = g.add_node(());
        let sp = dijkstra(&g, ns[0], |_, e| e.payload);
        assert!(sp.dist[lonely.index()].is_infinite());
        assert_eq!(extract_path(&g, &sp, ns[0], lonely), None);
    }

    #[test]
    fn source_distance_is_zero_and_path_is_singleton() {
        let (g, ns) = diamond();
        let sp = dijkstra(&g, ns[0], |_, e| e.payload);
        assert_eq!(sp.dist[0], 0.0);
        assert_eq!(extract_path(&g, &sp, ns[0], ns[0]).unwrap(), vec![ns[0]]);
    }

    #[test]
    fn a_tree_holds_twelve_bytes_per_node() {
        let (mut g, ns) = diamond();
        let lonely = g.add_node(());
        let sp = dijkstra(&g, ns[0], |_, e| e.payload);
        assert_eq!(std::mem::size_of_val(&sp.prev[0]), 4);
        assert_eq!(sp.bytes(), 12 * g.node_count());
        // the source and unreachable nodes have no entering edge; every
        // other node's edge ends at it
        assert_eq!(sp.entering(ns[0].index()), None);
        assert_eq!(sp.entering(lonely.index()), None);
        for &v in &ns[1..] {
            let e = sp.entering(v.index()).expect("reached");
            assert_eq!(g.edge(e).unwrap().dst, v);
        }
    }

    #[test]
    fn out_of_bounds_source_returns_all_unreachable() {
        let (g, _) = diamond();
        let sp = dijkstra(&g, NodeId(50), |_, e| e.payload);
        assert!(sp.dist.iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn directed_edges_are_respected() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0).unwrap(); // one-way only
        let sp = dijkstra(&g, b, |_, e| e.payload);
        assert!(sp.dist[a.index()].is_infinite());
    }

    #[test]
    fn dijkstra_matches_brute_force_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..25 {
            let n = rng.gen_range(3..8);
            let mut g: Graph<(), f64> = Graph::new();
            let ns: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.6) {
                        g.add_undirected_edge(ns[i], ns[j], rng.gen_range(0.1..5.0))
                            .unwrap();
                    }
                }
            }
            let sp = dijkstra(&g, ns[0], |_, e| e.payload);
            // brute force: Bellman-Ford style relaxation until fixpoint
            let mut bf = vec![f64::INFINITY; n];
            bf[0] = 0.0;
            for _ in 0..n {
                for (_, e) in g.edges() {
                    let cand = bf[e.src.index()] + e.payload;
                    if cand < bf[e.dst.index()] {
                        bf[e.dst.index()] = cand;
                    }
                }
            }
            for v in 0..n {
                let (a, b) = (sp.dist[v], bf[v]);
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                    "mismatch at {v}: dijkstra={a} brute={b}"
                );
            }
        }
    }
}
