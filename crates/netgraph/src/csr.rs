//! Flat CSR (compressed sparse row) graph snapshot and the cache-friendly
//! Dijkstra kernel that runs on it.
//!
//! The adjacency-list [`Graph`] is the right structure for
//! *building* networks — cheap appends, payload access by id — but its
//! `Vec<Vec<EdgeId>>` out-lists make the all-pairs metric closure (the
//! production bottleneck past a few hundred nodes) a pointer-chasing walk:
//! every relaxation dereferences an out-list, fetches the edge record for
//! its destination, and re-resolves the edge cost through a closure. A
//! [`Csr`] snapshot packs the same adjacency into three flat arrays —
//! prefix-sum `offsets`, and slot-indexed `targets` / `edge_ids` — so a
//! neighbor scan is one contiguous slice read, and the caller resolves the
//! cost model **once per edge per batch** into a slot-aligned `Vec<f64>`
//! ([`Csr::cost_vector`]) instead of once per heap relaxation.
//!
//! ## Bit-for-bit contract
//!
//! [`SsspScratch::shortest_paths`] is a drop-in replacement for
//! [`algo::dijkstra`](crate::algo::dijkstra), identical down to the last
//! bit — `dist`/`prev` including the entering edge chosen under ties — by
//! construction rather than by luck:
//!
//! * CSR slots preserve the graph's out-edge insertion order, so the
//!   kernel relaxes arcs in exactly the order the adjacency-list kernel
//!   does, producing the same heap push sequence;
//! * the heap is the same `std::collections::BinaryHeap`, and its entries
//!   compare distances by their IEEE-754 bit patterns, which on the
//!   non-negative non-NaN values Dijkstra produces is order- and
//!   equality-isomorphic to `f64` comparison (the private `MinEntry` key
//!   type) — every comparison returns the same `Ordering`, so the pop
//!   sequence (ties included) matches the adjacency-list kernel's;
//! * the kernel stops early once every node has settled, which skips only
//!   provably stale heap entries and provably failing relaxations.
//!
//! The workspace-level `csr_equivalence` proptests pin this on random,
//! disconnected, and generator-produced topologies.
//!
//! ## Scratch reuse
//!
//! Multi-source (all-pairs) builds run the kernel thousands of times over
//! one snapshot. [`SsspScratch`] owns the binary heap, recycling its
//! backing array across sources — the heap is the allocation that grows
//! unpredictably mid-run, so recycling it is what keeps the hot loop
//! allocation-free. Result buffers are deliberately *not* staged in
//! scratch: each run writes a fresh right-sized `dist`/`prev` pair and
//! moves it into the output, which measured faster than filling scratch
//! buffers and cloning them out. Hand each worker thread its own scratch —
//! the snapshot itself is immutable and freely shared.
//!
//! A tree is 12 bytes per node: an `f64` distance and the `u32` id of the
//! entering edge ([`ShortestPaths::NO_EDGE`] at the source and at
//! unreachable nodes), copied from the slot's `edge_ids` entry. The edge's
//! tail is not stored: the graph already knows it, and the kernel and the
//! repair only ever compare edges.
//!
//! ## Repairing a tree in place
//!
//! [`SsspScratch::repair`] brings an exact tree of this snapshot up to date
//! after some arcs changed cost, in the tree's own `dist`/`prev` buffers:
//! it invalidates the subtree below every changed tree arc, re-seeds each
//! invalidated node from its still-valid in-neighbours (through the
//! snapshot's in-slot index, built once with it), offers every changed arc
//! whose tail is still valid, and runs Dijkstra from those seeds under the
//! new costs with the same strict `<` relaxation as a cold run. Every label
//! left standing is the cost of a tree path with no changed arc, so the new
//! costs still achieve it, and the result is the least fixpoint of
//! `dist[v] = min_u dist[u] + w(u, v)` — unique, so its `dist` bits equal a
//! cold run's whatever the heap's tie order. Predecessors equal the cold
//! run's in generic position; under exact distance ties each one is still
//! tight (`dist[u] + w == dist[v]` on the named arc). A node hangs below a
//! changed arc exactly when its `prev` entry is that arc's edge id, so the
//! subtree walk is one `u32` compare per out-slot.

use crate::algo::ShortestPaths;
use crate::{EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Immutable flat adjacency snapshot of a [`Graph`]: `offsets[v]..offsets[v+1]`
/// indexes the packed out-edge slots of node `v`, in the graph's insertion
/// order. Payload-free — pair it with a slot-indexed cost vector from
/// [`Csr::cost_vector`].
#[derive(Debug, Clone)]
pub struct Csr {
    /// Prefix-sum slot offsets, `node_count + 1` entries.
    offsets: Vec<u32>,
    /// Destination node per slot.
    targets: Vec<u32>,
    /// Originating [`EdgeId`] per slot (for entering-edge links and cost
    /// resolution).
    edge_ids: Vec<u32>,
    /// Prefix-sum offsets of the in-slot index: `in_offsets[v]..in_offsets[v+1]`
    /// indexes the arcs entering `v`, `node_count + 1` entries.
    in_offsets: Vec<u32>,
    /// Tail node per in-slot entry.
    in_tails: Vec<u32>,
    /// Packed out-slot per in-slot entry (indexes `targets`, `edge_ids` and
    /// a cost vector).
    in_slots: Vec<u32>,
}

impl Csr {
    /// Snapshots the adjacency of `g`. Slot order within a node equals
    /// [`Graph::neighbors`] order, which is what keeps the CSR kernel
    /// bit-identical to the adjacency-list one.
    pub fn from_graph<N, E>(g: &Graph<N, E>) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.edge_count());
        let mut edge_ids = Vec::with_capacity(g.edge_count());
        offsets.push(0);
        for v in g.node_ids() {
            for nb in g.neighbors(v) {
                targets.push(nb.node.0);
                edge_ids.push(nb.edge.0);
            }
            offsets.push(targets.len() as u32);
        }
        // in-slot index: a counting sort of the slots by target, so each
        // node's entries keep ascending slot order
        let mut in_offsets = vec![0u32; n + 1];
        for &t in &targets {
            in_offsets[t as usize + 1] += 1;
        }
        for v in 0..n {
            in_offsets[v + 1] += in_offsets[v];
        }
        let mut fill = in_offsets.clone();
        let mut in_tails = vec![0u32; targets.len()];
        let mut in_slots = vec![0u32; targets.len()];
        for u in 0..n {
            for slot in offsets[u] as usize..offsets[u + 1] as usize {
                let at = &mut fill[targets[slot] as usize];
                in_tails[*at as usize] = u as u32;
                in_slots[*at as usize] = slot as u32;
                *at += 1;
            }
        }
        Csr {
            offsets,
            targets,
            edge_ids,
            in_offsets,
            in_tails,
            in_slots,
        }
    }

    /// Number of nodes in the snapshot.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of packed directed-edge slots.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// Resolves `cost` once per directed edge into a slot-aligned vector
    /// for [`SsspScratch::shortest_paths`].
    /// This is the "once per batch" half of the CSR bargain: the returned
    /// vector is read sequentially by every source of the batch.
    pub fn cost_vector(&self, mut cost: impl FnMut(EdgeId) -> f64) -> Vec<f64> {
        self.edge_ids.iter().map(|&eid| cost(EdgeId(eid))).collect()
    }

    /// The packed out-slots of `v` as `(target, edge)` pairs — mirrors
    /// [`Graph::neighbors`]. Out-of-bounds nodes have no slots.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let (s, e) = self.slot_range(v);
        self.targets[s..e]
            .iter()
            .zip(&self.edge_ids[s..e])
            .map(|(&t, &eid)| (NodeId(t), EdgeId(eid)))
    }

    /// The arcs entering `v` as `(tail, slot)` pairs, in ascending slot
    /// order; `slot` indexes a cost vector.
    fn in_arcs(&self, v: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        let s = self.in_offsets[v.index()] as usize;
        let e = self.in_offsets[v.index() + 1] as usize;
        self.in_tails[s..e]
            .iter()
            .zip(&self.in_slots[s..e])
            .map(|(&t, &slot)| (NodeId(t), slot as usize))
    }

    /// The packed slot of directed edge `e` out of `u`, if `u` has it.
    pub fn slot_of(&self, u: NodeId, e: EdgeId) -> Option<usize> {
        let (s, end) = self.slot_range(u);
        (s..end).find(|&slot| self.edge_ids[slot] == e.0)
    }

    #[inline]
    fn slot_range(&self, v: NodeId) -> (usize, usize) {
        if v.index() + 1 >= self.offsets.len() {
            return (0, 0);
        }
        (
            self.offsets[v.index()] as usize,
            self.offsets[v.index() + 1] as usize,
        )
    }
}

/// Min-heap entry for the CSR Dijkstra, keyed on the IEEE-754 bit pattern
/// of the distance.
///
/// For the values this kernel produces — non-negative, non-NaN, and never
/// `-0.0` (costs are `>= 0` and IEEE addition of such values cannot yield a
/// negative zero) — the unsigned integer order of `f64::to_bits` is exactly
/// the floating-point order, and bit equality is exactly float equality.
/// Every comparison therefore returns the same `Ordering` the legacy `f64`
/// entry would, so `BinaryHeap` produces the identical pop sequence — ties
/// included — while comparing in one integer instruction instead of a
/// `partial_cmp` on floats (measured ~13% off the whole kernel).
struct MinEntry {
    bits: u64,
    node: u32,
}

impl PartialEq for MinEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits
    }
}
impl Eq for MinEntry {}
impl PartialOrd for MinEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MinEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want min-dist on top
        other.bits.cmp(&self.bits)
    }
}

/// Reusable SSSP working memory: the binary heap, whose backing array is
/// recycled across the sources of a multi-source batch (result arrays are
/// written once and moved into the output, which measured faster than
/// staging them in scratch and cloning out), plus the invalidation marks
/// and stack of [`SsspScratch::repair`]. Create one per worker thread; the
/// [`Csr`] snapshot itself is shared read-only.
#[derive(Default)]
pub struct SsspScratch {
    heap: BinaryHeap<MinEntry>,
    /// Per-node "invalidated by this repair" flags; all false between runs.
    invalid: Vec<bool>,
    /// Nodes invalidated by the running repair, in discovery order.
    dirty: Vec<u32>,
    /// DFS stack of the subtree walk.
    stack: Vec<u32>,
}

impl SsspScratch {
    /// Empty scratch; buffers grow to the snapshot's node count on first
    /// use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// CSR Dijkstra from `src` under the slot-aligned `costs` vector
    /// (see [`Csr::cost_vector`]). Bit-identical to
    /// [`algo::dijkstra`](crate::algo::dijkstra) with the same cost
    /// function — including the entering edge chosen under distance ties.
    ///
    /// # Panics
    /// Panics if `costs.len() != csr.arc_count()`; debug-panics on a
    /// negative or NaN cost (the algorithm's correctness contract).
    pub fn shortest_paths(&mut self, csr: &Csr, src: NodeId, costs: &[f64]) -> ShortestPaths {
        assert_eq!(
            costs.len(),
            csr.arc_count(),
            "cost vector must be slot-aligned with the CSR snapshot"
        );
        let n = csr.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![ShortestPaths::NO_EDGE; n];
        if src.index() < n {
            self.heap.clear();
            dist[src.index()] = 0.0;
            self.heap.push(MinEntry {
                bits: 0, // 0.0f64.to_bits()
                node: src.0,
            });
            self.settle(csr, costs, &mut dist, &mut prev);
        }
        ShortestPaths { dist, prev }
    }

    /// Dijkstra's main loop, shared by the cold run and the repair: pops
    /// the heap in distance order and relaxes each settled node's out-slots
    /// under `costs` with a strict `<`. A node settles (pops at its current
    /// label) at most once, because pops come in non-decreasing order.
    fn settle(&mut self, csr: &Csr, costs: &[f64], dist: &mut [f64], prev: &mut [u32]) {
        let n = csr.node_count();
        let mut settled = 0usize;
        while let Some(MinEntry { bits, node: u }) = self.heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[u as usize] {
                continue; // stale entry
            }
            // Once every node has settled, each remaining heap entry is a
            // stale duplicate (a node's settling entry is its lowest ever
            // pushed), so draining them cannot touch dist/prev — breaking
            // here is exact, not an approximation.
            settled += 1;
            if settled == n {
                break;
            }
            let s = csr.offsets[u as usize] as usize;
            let e = csr.offsets[u as usize + 1] as usize;
            for (i, (&w, &tv)) in costs[s..e].iter().zip(&csr.targets[s..e]).enumerate() {
                debug_assert!(
                    w >= 0.0 && !w.is_nan(),
                    "Dijkstra requires non-negative non-NaN costs, got {w}"
                );
                let v = tv as usize;
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = csr.edge_ids[s + i];
                    self.heap.push(MinEntry {
                        bits: nd.to_bits(),
                        node: v as u32,
                    });
                }
            }
        }
    }

    /// Repairs `sp` in place: on entry an exact tree of `csr` under the old
    /// costs, on return the tree under `costs`, where `changed` lists every
    /// arc whose cost differs as a `(tail, slot)` pair (arcs may repeat).
    /// See the module docs for the method and the bit-identity argument.
    ///
    /// # Panics
    /// Panics if `costs` is not slot-aligned with `csr`, or if `sp` does not
    /// have one entry per node.
    pub fn repair(
        &mut self,
        csr: &Csr,
        costs: &[f64],
        sp: &mut ShortestPaths,
        changed: &[(NodeId, usize)],
    ) {
        assert_eq!(
            costs.len(),
            csr.arc_count(),
            "cost vector must be slot-aligned with the CSR snapshot"
        );
        let n = csr.node_count();
        assert!(
            sp.dist.len() == n && sp.prev.len() == n,
            "tree must have one entry per snapshot node"
        );
        self.invalid.resize(n, false);
        let ShortestPaths { dist, prev } = sp;
        let names_slot =
            |prev: &[u32], slot: usize| prev[csr.targets[slot] as usize] == csr.edge_ids[slot];

        // 1. invalidate the subtree below every changed tree arc
        for &(_, slot) in changed {
            let v = csr.targets[slot];
            if self.invalid[v as usize] || !names_slot(prev, slot) {
                continue;
            }
            self.invalid[v as usize] = true;
            self.dirty.push(v);
            self.stack.push(v);
            while let Some(y) = self.stack.pop() {
                let (s, e) = csr.slot_range(NodeId(y));
                for child_slot in s..e {
                    let x = csr.targets[child_slot];
                    if !self.invalid[x as usize] && names_slot(prev, child_slot) {
                        self.invalid[x as usize] = true;
                        self.dirty.push(x);
                        self.stack.push(x);
                    }
                }
            }
        }
        for &v in &self.dirty {
            dist[v as usize] = f64::INFINITY;
            prev[v as usize] = ShortestPaths::NO_EDGE;
        }

        // 2. seed invalidated nodes from their valid in-neighbours, then
        // offer the changed arcs leaving valid nodes
        self.heap.clear();
        for &v in &self.dirty {
            let v = v as usize;
            for (t, slot) in csr.in_arcs(NodeId(v as u32)) {
                if !self.invalid[t.index()] {
                    let nd = dist[t.index()] + costs[slot];
                    if nd < dist[v] {
                        dist[v] = nd;
                        prev[v] = csr.edge_ids[slot];
                    }
                }
            }
            if dist[v].is_finite() {
                self.heap.push(MinEntry {
                    bits: dist[v].to_bits(),
                    node: v as u32,
                });
            }
        }
        for &(u, slot) in changed {
            let v = csr.targets[slot] as usize;
            if self.invalid[u.index()] || self.invalid[v] {
                continue;
            }
            let nd = dist[u.index()] + costs[slot];
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = csr.edge_ids[slot];
                self.heap.push(MinEntry {
                    bits: nd.to_bits(),
                    node: v as u32,
                });
            }
        }

        // 3. Dijkstra from the seeds under the new costs
        self.settle(csr, costs, dist, prev);
        for v in self.dirty.drain(..) {
            self.invalid[v as usize] = false;
        }
    }
}

/// One-shot CSR Dijkstra — convenience wrapper allocating a fresh scratch.
/// Multi-source callers should hold a [`SsspScratch`] instead.
pub fn dijkstra_csr(csr: &Csr, src: NodeId, costs: &[f64]) -> ShortestPaths {
    SsspScratch::new().shortest_paths(csr, src, costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra;
    use crate::Graph;

    /// Weighted test graph (same as the Dijkstra module's diamond):
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

    fn assert_sp_identical(a: &ShortestPaths, b: &ShortestPaths) {
        assert_eq!(a.dist.len(), b.dist.len());
        for v in 0..a.dist.len() {
            assert_eq!(a.dist[v].to_bits(), b.dist[v].to_bits(), "dist at {v}");
            assert_eq!(a.prev[v], b.prev[v], "prev at {v}");
        }
    }

    #[test]
    fn snapshot_preserves_counts_and_neighbor_order() {
        let (g, _) = diamond();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.arc_count(), g.edge_count());
        for v in g.node_ids() {
            let legacy: Vec<_> = g.neighbors(v).map(|nb| (nb.node, nb.edge)).collect();
            let packed: Vec<_> = csr.neighbors(v).collect();
            assert_eq!(legacy, packed, "slot order at {v:?}");
        }
        // out-of-bounds nodes have no slots
        assert_eq!(csr.neighbors(NodeId(99)).count(), 0);
    }

    #[test]
    fn csr_dijkstra_matches_legacy_bit_for_bit() {
        let (g, ns) = diamond();
        let csr = Csr::from_graph(&g);
        let costs = csr.cost_vector(|eid| g.edge(eid).unwrap().payload);
        for &src in &ns {
            let legacy = dijkstra(&g, src, |_, e| e.payload);
            let fast = dijkstra_csr(&csr, src, &costs);
            assert_sp_identical(&legacy, &fast);
        }
    }

    #[test]
    fn scratch_is_reusable_across_sources_and_graphs() {
        let (g, ns) = diamond();
        let csr = Csr::from_graph(&g);
        let costs = csr.cost_vector(|eid| g.edge(eid).unwrap().payload);
        let mut scratch = SsspScratch::new();
        let first = scratch.shortest_paths(&csr, ns[0], &costs);
        // run from another source, then re-run the first: identical output
        let _ = scratch.shortest_paths(&csr, ns[3], &costs);
        let again = scratch.shortest_paths(&csr, ns[0], &costs);
        assert_sp_identical(&first, &again);
        // a smaller graph shrinks the output, not just the prefix
        let mut g2: Graph<(), f64> = Graph::new();
        let a = g2.add_node(());
        let b = g2.add_node(());
        g2.add_edge(a, b, 2.0).unwrap();
        let csr2 = Csr::from_graph(&g2);
        let costs2 = csr2.cost_vector(|eid| g2.edge(eid).unwrap().payload);
        let sp = scratch.shortest_paths(&csr2, a, &costs2);
        assert_eq!(sp.dist.len(), 2);
        assert_eq!(sp.dist[1], 2.0);
    }

    #[test]
    fn out_of_bounds_source_returns_all_unreachable() {
        let (g, _) = diamond();
        let csr = Csr::from_graph(&g);
        let costs = csr.cost_vector(|eid| g.edge(eid).unwrap().payload);
        let sp = dijkstra_csr(&csr, NodeId(50), &costs);
        assert!(sp.dist.iter().all(|d| d.is_infinite()));
    }

    #[test]
    #[should_panic(expected = "slot-aligned")]
    fn misaligned_cost_vector_is_rejected() {
        let (g, ns) = diamond();
        let csr = Csr::from_graph(&g);
        let _ = dijkstra_csr(&csr, ns[0], &[1.0, 2.0]);
    }

    #[test]
    fn in_arcs_index_every_slot_under_its_target() {
        let (g, ns) = diamond();
        let csr = Csr::from_graph(&g);
        let mut seen = 0;
        for u in g.node_ids() {
            for (v, e) in csr.neighbors(u) {
                let slot = csr.slot_of(u, e).expect("out-slot of u");
                assert_eq!(
                    csr.in_arcs(v).filter(|&a| a == (u, slot)).count(),
                    1,
                    "slot {slot} listed once under its target"
                );
                seen += 1;
            }
        }
        let indexed: usize = g.node_ids().map(|v| csr.in_arcs(v).count()).sum();
        assert_eq!((seen, indexed), (csr.arc_count(), csr.arc_count()));
        assert_eq!(csr.slot_of(ns[0], EdgeId(99)), None);
    }

    #[test]
    fn repair_reaches_the_cold_tree_whichever_way_costs_move() {
        let (g, ns) = diamond();
        let csr = Csr::from_graph(&g);
        let old = csr.cost_vector(|eid| g.edge(eid).unwrap().payload);
        // (edge, new cost): a tree edge rises, a tree edge falls, an
        // off-tree edge falls below the tree, and a cut
        let moves: [&[(u32, f64)]; 4] = [
            &[(0, 5.0)],
            &[(2, 0.25), (3, 0.25)],
            &[(4, 0.25)],
            &[(2, f64::INFINITY), (3, f64::INFINITY), (6, 0.1)],
        ];
        let mut scratch = SsspScratch::new();
        for moved in moves {
            let mut new = old.clone();
            let mut changed = Vec::new();
            for &(e, w) in moved {
                let edge = g.edge(EdgeId(e)).unwrap();
                let slot = csr.slot_of(edge.src, EdgeId(e)).unwrap();
                new[slot] = w;
                changed.push((edge.src, slot));
            }
            for &src in &ns {
                let mut sp = dijkstra_csr(&csr, src, &old);
                scratch.repair(&csr, &new, &mut sp, &changed);
                assert_sp_identical(&sp, &dijkstra_csr(&csr, src, &new));
            }
        }
    }

    #[test]
    fn empty_graph_snapshot_is_valid() {
        let g: Graph<(), f64> = Graph::new();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.arc_count(), 0);
        let sp = dijkstra_csr(&csr, NodeId(0), &[]);
        assert!(sp.dist.is_empty());
    }
}
