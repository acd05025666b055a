//! Incremental (churn) maintenance of the routed metric closure.
//!
//! A bandwidth/MLD/power perturbation used to invalidate *everything*: the
//! `ClosureBank` keys on the full topology fingerprint, so any change —
//! even one link of ten thousand — forced a complete all-pairs rebuild.
//! This module repairs instead of rebuilding: given a [`NetworkDelta`]
//! (the exact set of perturbed links and nodes between an old and a new
//! network), it decides *per cached tree* whether the perturbation can
//! affect that tree, keeps the untouched majority as shared `Arc`s, and
//! repairs each stale tree **in its own buffers**
//! ([`elpc_netgraph::csr::SsspScratch::repair`]): only the subtrees the
//! delta touched are recomputed, never the whole tree.
//!
//! ## The invalidation rule
//!
//! For a tree rooted at `s` for payload `m`, and a perturbed directed edge
//! `e = (u, v)` whose cost under the tree's payload moved from `w_old` to
//! `w_new` (costs priced through [`CostModel::raw_link_transfer_ms`]; a
//! perturbation that leaves the cost bit-identical — e.g. a bandwidth
//! change under a zero-byte payload — is *no* change):
//!
//! 1. **The tree traverses `e`**: `prev[v]` names `e` (only `prev[v]` can
//!    name an edge into `v`, so this one lookup is the whole test). Every
//!    distance downstream of `e` is built on the old cost → **stale**.
//! 2. **`e` is off-tree but could now compete**: `dist[u] + w_new <=
//!    dist[v]` with `dist[u]` finite. A strict `<` would change distances;
//!    equality could change predecessor tie resolution → **stale**
//!    (conservative).
//! 3. **Otherwise** (`dist[u] + w_new > dist[v]`, or `u` unreachable): a
//!    path through `e` is strictly worse than the retained distance. By
//!    induction over path prefixes no path beats the old distances under
//!    the new costs, and the tree itself avoids every changed edge, so its
//!    distances still *achieve* them → **keep, bit-for-bit**.
//!
//! The test costs O(changes) per tree. Node power perturbations never
//! touch transfer trees at all — edge costs depend only on bandwidth, MLD,
//! and payload — they only change the compute columns of an `EvalKernel`
//! built on the perturbed network, and re-key the bank.
//!
//! ## The repair
//!
//! A stale tree is repaired under the new network's slot-aligned cost
//! vector (the target closure's memoised one, built once per payload):
//!
//! 1. the subtree below **every** changed tree edge is invalidated
//!    (`dist = ∞`, `prev = None`), whether its cost rose or fell, so every
//!    label left standing is the cost of a tree path with no changed edge
//!    — one the new costs still achieve;
//! 2. each invalidated node is seeded from its valid in-neighbours (the CSR
//!    snapshot's in-slot index), and every changed edge with a valid,
//!    finite tail is offered to its head;
//! 3. Dijkstra runs from those seeds under the new costs with a strict `<`.
//!
//! The result is the least fixpoint of `dist[v] = min_u dist[u] ⊕ w(u, v)`,
//! which is unique whatever the heap's tie order, so repaired distances are
//! bit-identical to a cold build. Stale trees are split over `threads`
//! [`crate::par`] workers, each with its own scratch; each tree's result
//! depends on nothing else, so the repair is bit-identical at any thread
//! count.
//!
//! ## Ownership: repaired in place, never under a reader
//!
//! [`repair_trees`] mutates each stale tree through [`Arc::make_mut`]. A
//! tree nobody else holds (a bank entry taken out of its store) is
//! rewritten in its own `dist`/`prev` buffers without allocating, so the
//! old and the repaired tree never coexist; a tree some live context still
//! holds is copied first, so nothing is ever mutated under a reader.
//! [`repair_closure`] is the same routine on copied `Arc`s: its input stays
//! untouched, and stale trees are copied and repaired.
//!
//! ## Failures are perturbations to a sentinel
//!
//! A *failed* element — a link cut to `bw = 0`, a node crashed to
//! `power = 0` (see `elpc_netsim::faults`) — is an ordinary perturbation
//! whose new value is the sentinel: [`LinkPerturbation::is_failure`] and
//! [`NodePerturbation::is_crash`] classify it, and a restore (failed →
//! healthy) is just the perturbation back. A crashed node's incident links
//! arrive as their own cuts, and the crash re-prices compute to `+∞` and
//! flags every mapped pipeline hosted there for forced remap
//! ([`NetworkDelta::forces_remap`]).
//!
//! The invalidation rule needs no special case for them. A cut prices at
//! `w_new = +∞`, so rule 1 marks stale every tree that traverses it. Rule 2
//! can never fire for it: the cached tree is exact for the old network and
//! the cut link's `w_old` is finite, so `dist[v] ≤ dist[u] + w_old < ∞`
//! whenever `dist[u]` is finite, while `dist[u] + ∞ = ∞`. An off-tree cut
//! is therefore always kept by rule 3 — an edge that only got worse never
//! newly competes. (A link already priced at `+∞` before the cut is a cost
//! no-op and is dropped with the other bit-identical costs.) A crash cuts
//! an in-edge of the crashed node on every tree that reaches it, so nearly
//! every tree is stale on a fault epoch — but only the crashed node's
//! subtree, usually small, is recomputed.
//!
//! ## Exactness
//!
//! Kept trees are reused as `Arc`s, so their exported bytes are *identical*
//! (not merely equal) to the pre-perturbation export; repaired trees reach
//! the same unique fixpoint as a cold build, so the repaired closure's
//! [`crate::MetricClosure::export`] is byte-identical to a from-scratch
//! closure over the perturbed network. One caveat, pinned by the
//! differential suites on tie-free instances: when distinct shortest paths
//! *tie exactly* in `f64`, a fresh Dijkstra may resolve a kept or repaired
//! tree's predecessor links differently than the retained or repaired tree
//! does — distances are always bit-identical, and every predecessor is
//! tight (`dist[u] + w == dist[v]` on the edge it names), but predecessors
//! equal a cold build's only in generic position.

use crate::context::{CachedTree, MetricClosure};
use crate::{CostModel, MappingError, Result};
use elpc_netgraph::algo::ShortestPaths;
use elpc_netgraph::csr::SsspScratch;
use elpc_netgraph::{EdgeId, NodeId};
use elpc_netsim::{Link, Network};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One perturbed directed edge: its endpoints and its old/new link values.
/// A cut is a perturbation to the `bw = 0` sentinel
/// ([`LinkPerturbation::is_failure`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkPerturbation {
    /// The directed edge id (both directions of a symmetric link appear as
    /// separate perturbations).
    pub edge: EdgeId,
    /// Tail of the directed edge.
    pub src: NodeId,
    /// Head of the directed edge.
    pub dst: NodeId,
    /// The link value before the perturbation.
    pub old: Link,
    /// The link value after it.
    pub new: Link,
}

impl LinkPerturbation {
    /// True when a healthy link failed: it went to the `bw = 0` sentinel
    /// ([`elpc_netsim::Link::is_failed`]), so it prices at `+∞` under every
    /// payload.
    pub fn is_failure(&self) -> bool {
        self.new.is_failed() && !self.old.is_failed()
    }
}

/// One perturbed node: its old and new compute power. A crash is a
/// perturbation to the `power = 0` sentinel ([`NodePerturbation::is_crash`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePerturbation {
    /// The node.
    pub node: NodeId,
    /// Power before the perturbation.
    pub old_power: f64,
    /// Power after it.
    pub new_power: f64,
}

impl NodePerturbation {
    /// True when the node crashed: compute there prices at `+∞`, and any
    /// mapped pipeline hosting a module on it must be remapped
    /// ([`NetworkDelta::forces_remap`]).
    pub fn is_crash(&self) -> bool {
        self.new_power == 0.0
    }
}

/// The exact difference between two same-shaped networks: which directed
/// edges and nodes changed, with old and new values, each list in
/// ascending id order. Failures and restores are ordinary entries.
/// Serializable, so a remap client can ship it to the serving daemon for
/// an in-place bank repair.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NetworkDelta {
    /// Perturbed directed edges.
    pub links: Vec<LinkPerturbation>,
    /// Perturbed nodes.
    pub nodes: Vec<NodePerturbation>,
}

/// What a [`repair_trees`] run did, for the exact-accounting pins:
/// `kept + rebuilt == total` whenever every tree has the target network's
/// shape (the only trees a same-shaped delta can describe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RepairReport {
    /// Cached trees examined (the old closure's full export).
    pub total: usize,
    /// Trees the invalidation rule retained, reused as shared `Arc`s.
    pub kept: usize,
    /// Stale trees, each *repaired* (not rebuilt from scratch): only the
    /// subtrees the delta touched were recomputed. The name is kept for
    /// the accounting's consumers.
    pub rebuilt: usize,
}

impl NetworkDelta {
    /// Diffs two structurally identical networks (same node count, same
    /// edge ids with the same endpoints — the shape every
    /// `DynamicNetwork::snapshot_at` pair has). Values are compared by bit
    /// pattern, so the delta is empty exactly when the networks would
    /// fingerprint identically.
    pub fn between(old: &Network, new: &Network) -> Result<NetworkDelta> {
        if old.node_count() != new.node_count()
            || old.graph().edge_count() != new.graph().edge_count()
        {
            return Err(MappingError::BadConfig(format!(
                "delta requires same-shaped networks, got {}n/{}e vs {}n/{}e",
                old.node_count(),
                old.graph().edge_count(),
                new.node_count(),
                new.graph().edge_count()
            )));
        }
        let edges = (0..old.graph().edge_count()).map(EdgeId::from_index);
        let nodes = (0..old.node_count()).map(NodeId::from_index);
        diff(old, new, edges, nodes)
    }

    /// Builds a delta from a *known* changed-element set (e.g.
    /// `DynamicNetwork::changes_between`) in O(|changes|), instead of
    /// diffing whole networks like [`NetworkDelta::between`]. `links` may
    /// name either direction of an undirected pair — both directed edges
    /// are diffed (pair ids differ by exactly one, a graph-construction
    /// invariant) — and duplicate links or nodes are ignored. Elements
    /// whose values turn out bit-identical are dropped, so over-reporting
    /// changes is harmless; *under*-reporting is the caller's contract to
    /// avoid.
    pub fn from_changed_elements(
        old: &Network,
        new: &Network,
        links: &[EdgeId],
        nodes: &[NodeId],
    ) -> Result<NetworkDelta> {
        // the undirected pair's other half is the id with the low bit flipped
        let edges = links.iter().flat_map(|id| [*id, EdgeId(id.0 ^ 1)]);
        diff(old, new, edges, nodes.iter().copied())
    }

    /// Rebuilds the new network from the old one: a copy of `base` with
    /// every element of the delta set to its new value.
    ///
    /// Every `old` value must match the element it overwrites bit for bit,
    /// and every id must exist with the endpoints the delta names, so a
    /// delta taken against some other network is rejected instead of
    /// producing a hybrid.
    pub fn apply(&self, base: &Network) -> std::result::Result<Network, DeltaApplyError> {
        let mut out = base.clone();
        for lp in &self.links {
            set_link(&mut out, lp)?;
        }
        for np in &self.nodes {
            set_power(&mut out, np)?;
        }
        Ok(out)
    }

    /// True when nothing changed: old and new networks are value-identical.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.nodes.is_empty()
    }

    /// True when the delta contains a failed link or a crashed node (as
    /// opposed to pure value perturbations and restores).
    pub fn has_failures(&self) -> bool {
        self.links.iter().any(LinkPerturbation::is_failure)
            || self.nodes.iter().any(NodePerturbation::is_crash)
    }

    /// True when any of `hosts` (a mapped pipeline's assignment) sits on a
    /// node that crashed in this delta — that pipeline *must* be remapped;
    /// no amount of closure repair can salvage a dead host.
    pub fn forces_remap(&self, hosts: &[NodeId]) -> bool {
        self.nodes
            .iter()
            .any(|np| np.is_crash() && hosts.contains(&np.node))
    }

    /// The perturbed link costs under `cost` for one payload size, with
    /// no-op changes (bit-identical old/new cost) already dropped. A cut
    /// prices at `+∞` like any other new value (see the module docs for
    /// why rule 2 then never fires).
    fn priced_links(&self, cost: &CostModel, bytes: f64) -> Vec<PricedChange> {
        self.links
            .iter()
            .filter_map(|lp| {
                let w_old = cost.raw_link_transfer_ms(&lp.old, bytes);
                let w_new = cost.raw_link_transfer_ms(&lp.new, bytes);
                (w_old.to_bits() != w_new.to_bits()).then_some(PricedChange {
                    edge: lp.edge,
                    u: lp.src.index(),
                    v: lp.dst.index(),
                    w_new,
                })
            })
            .collect()
    }
}

/// The one diff behind [`NetworkDelta::between`] and
/// [`NetworkDelta::from_changed_elements`]: compares the named directed
/// edges and nodes of `old` and `new` by bit pattern, each id once, in
/// ascending id order.
fn diff(
    old: &Network,
    new: &Network,
    edges: impl IntoIterator<Item = EdgeId>,
    nodes: impl IntoIterator<Item = NodeId>,
) -> Result<NetworkDelta> {
    let mut edges: Vec<EdgeId> = edges.into_iter().collect();
    edges.sort_unstable();
    edges.dedup();
    let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut out = NetworkDelta::default();
    for id in edges {
        let d = id.0;
        let e_old = old.graph().edge(id).map_err(|e| {
            MappingError::BadConfig(format!("changed edge {d} not in old network: {e}"))
        })?;
        let e_new = new.graph().edge(id).map_err(|e| {
            MappingError::BadConfig(format!("changed edge {d} not in new network: {e}"))
        })?;
        if e_old.src != e_new.src || e_old.dst != e_new.dst {
            return Err(MappingError::BadConfig(format!(
                "delta requires identical wiring, edge {d} moved endpoints"
            )));
        }
        if !same_link(&e_old.payload, &e_new.payload) {
            out.links.push(LinkPerturbation {
                edge: id,
                src: e_old.src,
                dst: e_old.dst,
                old: e_old.payload.clone(),
                new: e_new.payload.clone(),
            });
        }
    }
    for node in nodes {
        if node.index() >= old.node_count() || node.index() >= new.node_count() {
            return Err(MappingError::BadConfig(format!(
                "changed node {} out of range",
                node.index()
            )));
        }
        let (old_power, new_power) = (old.power(node), new.power(node));
        if old_power.to_bits() != new_power.to_bits() {
            out.nodes.push(NodePerturbation {
                node,
                old_power,
                new_power,
            });
        }
    }
    Ok(out)
}

/// Bit-pattern equality of two link values.
fn same_link(a: &Link, b: &Link) -> bool {
    a.bw_mbps.to_bits() == b.bw_mbps.to_bits() && a.mld_ms.to_bits() == b.mld_ms.to_bits()
}

/// Why [`NetworkDelta::apply`] refused a base network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaApplyError {
    /// The delta names an edge id the base network does not have.
    EdgeOutOfRange {
        /// The offending edge id.
        edge: EdgeId,
    },
    /// The delta names a node id the base network does not have.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
    },
    /// The edge exists but joins other endpoints than the delta says.
    EndpointMismatch {
        /// The edge whose wiring differs.
        edge: EdgeId,
    },
    /// A link's `old` value is not the value it would overwrite.
    StaleLink {
        /// The edge whose old value differs.
        edge: EdgeId,
    },
    /// A node's old power is not the power it would overwrite.
    StalePower {
        /// The node whose old power differs.
        node: NodeId,
    },
}

impl std::fmt::Display for DeltaApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaApplyError::EdgeOutOfRange { edge } => {
                write!(f, "delta names edge {} beyond the base network", edge.0)
            }
            DeltaApplyError::NodeOutOfRange { node } => {
                write!(f, "delta names node {} beyond the base network", node.0)
            }
            DeltaApplyError::EndpointMismatch { edge } => {
                write!(f, "delta wires edge {} differently from the base", edge.0)
            }
            DeltaApplyError::StaleLink { edge } => {
                write!(f, "delta's old value of edge {} is not the base's", edge.0)
            }
            DeltaApplyError::StalePower { node } => {
                write!(f, "delta's old power of node {} is not the base's", node.0)
            }
        }
    }
}

impl std::error::Error for DeltaApplyError {}

fn set_link(net: &mut Network, lp: &LinkPerturbation) -> std::result::Result<(), DeltaApplyError> {
    let edge = lp.edge;
    let e = net
        .graph()
        .edge(edge)
        .map_err(|_| DeltaApplyError::EdgeOutOfRange { edge })?;
    if e.src != lp.src || e.dst != lp.dst {
        return Err(DeltaApplyError::EndpointMismatch { edge });
    }
    if !same_link(&e.payload, &lp.old) {
        return Err(DeltaApplyError::StaleLink { edge });
    }
    *net.link_mut(edge).expect("edge checked above") = lp.new.clone();
    Ok(())
}

fn set_power(net: &mut Network, np: &NodePerturbation) -> std::result::Result<(), DeltaApplyError> {
    let node = np.node;
    let n = net
        .node_mut(node)
        .map_err(|_| DeltaApplyError::NodeOutOfRange { node })?;
    if n.power.to_bits() != np.old_power.to_bits() {
        return Err(DeltaApplyError::StalePower { node });
    }
    n.power = np.new_power;
    Ok(())
}

/// A link perturbation priced for one payload: all the invalidation rule
/// needs per tree.
struct PricedChange {
    edge: EdgeId,
    u: usize,
    v: usize,
    w_new: f64,
}

/// What the repair of one payload's stale trees needs: the new network's
/// slot-aligned costs, and the changed arcs as `(tail, slot)` pairs.
struct PayloadPlan {
    costs: Arc<[f64]>,
    arcs: Vec<(NodeId, usize)>,
}

/// The invalidation rule (module docs) for one tree against one payload's
/// priced changes, in O(changes).
fn tree_is_stale(tree: &ShortestPaths, priced: &[PricedChange]) -> bool {
    priced.iter().any(|pc| {
        // rule 1: the tree traverses the changed edge — only prev[v] can
        // name an edge into v
        if tree.entering(pc.v) == Some(pc.edge) {
            return true;
        }
        let du = tree.dist[pc.u];
        // rule 2: a changed off-tree edge now matches or beats the
        // retained distance at its head
        du.is_finite() && du + pc.w_new <= tree.dist[pc.v]
    })
}

/// Repairs `entries` (an old closure's [`crate::MetricClosure::export`])
/// into `target`, a closure over the *perturbed* network, per `delta`:
/// [`repair_trees`] on copies of the entries' `Arc`s, then every tree
/// seeded into `target`. `entries` itself is left untouched, so each stale
/// tree is copied before it is repaired.
///
/// After this returns, `target` answers every key `entries` held,
/// byte-identically to a from-scratch closure over the perturbed network
/// (predecessor links in generic position; see the module docs for the
/// exact-tie caveat). Repaired trees are seeded like kept ones, not
/// queried: `target`'s hit/miss statistics do not move.
pub fn repair_closure(
    target: &MetricClosure<'_>,
    entries: &[CachedTree],
    delta: &NetworkDelta,
    threads: usize,
) -> RepairReport {
    let mut trees = entries.to_vec();
    let report = repair_trees(target, &mut trees, delta, threads);
    target.seed(&trees);
    report
}

/// Repairs `trees`, exact trees of the network `delta` starts from, in
/// place into exact trees of `target`'s network under `target`'s cost
/// model. Kept trees are left as they are; each stale tree is repaired
/// through [`Arc::make_mut`] — in its own buffers when the `Arc` is unique,
/// on a copy when anyone else still holds it (see the module docs). Stale
/// trees are split over `threads` workers (`0` = all CPUs), each with its
/// own scratch; the result is bit-identical at any thread count. Trees
/// whose shape does not match `target`'s network are dropped, as
/// [`crate::MetricClosure::seed`] would reject them. `target` lends its CSR
/// snapshot and memoised cost vectors; its cache and statistics are left
/// alone.
pub fn repair_trees(
    target: &MetricClosure<'_>,
    trees: &mut Vec<CachedTree>,
    delta: &NetworkDelta,
    threads: usize,
) -> RepairReport {
    let total = trees.len();
    let n = target.network().node_count();
    trees.retain(|e| e.tree.dist.len() == n && (e.key.source as usize) < n);

    // decide per tree, pricing each distinct payload once
    let mut priced_of: BTreeMap<u64, Vec<PricedChange>> = BTreeMap::new();
    let mut stale: Vec<&mut CachedTree> = Vec::new();
    let mut kept = 0;
    for e in trees.iter_mut() {
        let priced = priced_of
            .entry(e.key.payload_bits)
            .or_insert_with(|| delta.priced_links(target.cost(), e.key.payload()));
        if tree_is_stale(&e.tree, priced) {
            stale.push(e);
        } else {
            kept += 1;
        }
    }
    let repaired = stale.len();

    // per stale payload: the new cost vector and the changed arcs
    let csr = target.csr();
    let mut plan_of: BTreeMap<u64, PayloadPlan> = BTreeMap::new();
    for e in &stale {
        plan_of
            .entry(e.key.payload_bits)
            .or_insert_with(|| PayloadPlan {
                costs: target.costs_for(e.key.payload_bits),
                arcs: priced_of[&e.key.payload_bits]
                    .iter()
                    .filter_map(|pc| {
                        let u = NodeId::from_index(pc.u);
                        csr.slot_of(u, pc.edge).map(|slot| (u, slot))
                    })
                    .collect(),
            });
    }
    crate::par::for_each_with(stale, threads, SsspScratch::new, |scratch, e| {
        let plan = &plan_of[&e.key.payload_bits];
        scratch.repair(csr, &plan.costs, Arc::make_mut(&mut e.tree), &plan.arcs);
    });
    RepairReport {
        total,
        kept,
        rebuilt: repaired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MetricClosure;
    use elpc_netsim::Network;

    /// 4-node diamond with a detour: 0-1-3 is the fast route, 0-2-3 slow.
    fn diamond() -> Network {
        let mut b = Network::builder();
        let n0 = b.add_node(100.0).unwrap();
        let n1 = b.add_node(100.0).unwrap();
        let n2 = b.add_node(100.0).unwrap();
        let n3 = b.add_node(100.0).unwrap();
        b.add_link(n0, n1, 1000.0, 0.1).unwrap();
        b.add_link(n1, n3, 1000.0, 0.1).unwrap();
        b.add_link(n0, n2, 100.0, 0.1).unwrap();
        b.add_link(n2, n3, 100.0, 0.1).unwrap();
        b.build().unwrap()
    }

    fn perturb_link(net: &Network, undirected: usize, bw_scale: f64) -> Network {
        let mut out = net.clone();
        let id = EdgeId((2 * undirected) as u32);
        let old = net.link(id).unwrap().clone();
        out.set_link_symmetric(id, Link::new(old.bw_mbps * bw_scale, old.mld_ms))
            .unwrap();
        out
    }

    #[test]
    fn between_reports_exactly_the_perturbed_elements() {
        let old = diamond();
        let new = perturb_link(&old, 1, 0.5);
        let delta = NetworkDelta::between(&old, &new).unwrap();
        // both directions of undirected link 1 = edge ids 2 and 3
        let ids: Vec<u32> = delta.links.iter().map(|l| l.edge.0).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(delta.nodes.is_empty());
        assert!(NetworkDelta::between(&old, &old).unwrap().is_empty());
    }

    #[test]
    fn from_changed_elements_agrees_with_a_full_diff() {
        let old = diamond();
        let mut new = perturb_link(&old, 1, 0.5);
        new.node_mut(NodeId(2)).unwrap().power = 50.0;
        let full = NetworkDelta::between(&old, &new).unwrap();
        // Either direction of the pair names the same undirected link, and
        // duplicates collapse; unchanged elements are dropped.
        for links in [vec![EdgeId(2)], vec![EdgeId(3)], vec![EdgeId(2), EdgeId(3)]] {
            // NodeId(0) is unchanged — dropped
            for nodes in [
                vec![NodeId(2), NodeId(0)],
                vec![NodeId(2), NodeId(2), NodeId(0)],
            ] {
                let sparse = NetworkDelta::from_changed_elements(&old, &new, &links, &nodes);
                assert_eq!(sparse.unwrap(), full);
            }
        }
        assert!(NetworkDelta::from_changed_elements(&old, &new, &[EdgeId(99)], &[]).is_err());
    }

    #[test]
    fn between_rejects_shape_mismatches() {
        let old = diamond();
        let mut b = Network::builder();
        let a = b.add_node(100.0).unwrap();
        let c = b.add_node(100.0).unwrap();
        b.add_link(a, c, 100.0, 0.1).unwrap();
        let other = b.build().unwrap();
        assert!(NetworkDelta::between(&old, &other).is_err());
    }

    #[test]
    fn power_only_deltas_keep_every_tree() {
        let old = diamond();
        let mut new = old.clone();
        new.node_mut(NodeId(2)).unwrap().power = 50.0;
        let delta = NetworkDelta::between(&old, &new).unwrap();
        assert!(delta.links.is_empty());
        assert_eq!(delta.nodes.len(), 1);

        let cost = CostModel::default();
        let closure = MetricClosure::new(&old, cost);
        let sources: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();
        closure.par_warm(&sources, &[1_000_000.0], 1);
        let entries = closure.export();

        let target = MetricClosure::new(&new, cost);
        let report = repair_closure(&target, &entries, &delta, 1);
        assert_eq!(report.kept, report.total);
        assert_eq!(report.rebuilt, 0);
    }

    #[test]
    fn repair_matches_a_cold_build_bit_for_bit() {
        let old = diamond();
        let cost = CostModel::default();
        let payloads = [1_000_000.0, 250_000.0];
        let sources: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();

        let closure = MetricClosure::new(&old, cost);
        closure.par_warm(&sources, &payloads, 1);
        let entries = closure.export();

        for (undirected, scale) in [(0usize, 0.25), (1, 4.0), (2, 0.5), (3, 2.0)] {
            let new = perturb_link(&old, undirected, scale);
            let delta = NetworkDelta::between(&old, &new).unwrap();

            let repaired = MetricClosure::new(&new, cost);
            let report = repair_closure(&repaired, &entries, &delta, 1);
            assert_eq!(report.kept + report.rebuilt, report.total);

            let cold = MetricClosure::new(&new, cost);
            cold.par_warm(&sources, &payloads, 1);

            let (a, b) = (repaired.export(), cold.export());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.key, y.key);
                let bits_a: Vec<u64> = x.tree.dist.iter().map(|d| d.to_bits()).collect();
                let bits_b: Vec<u64> = y.tree.dist.iter().map(|d| d.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "dist diverged (link {undirected} ×{scale})");
                assert_eq!(
                    x.tree.prev, y.tree.prev,
                    "prev diverged (link {undirected} ×{scale})"
                );
            }
        }
    }

    #[test]
    fn failures_are_classified_as_removals_and_restores_as_perturbations() {
        let old = diamond();
        let mut failed = old.clone();
        failed.fail_link_symmetric(EdgeId(2)).unwrap(); // undirected link 1
        failed.fail_node(NodeId(2)).unwrap(); // cuts links 2 and 3 too

        let delta = NetworkDelta::between(&old, &failed).unwrap();
        assert!(
            delta.links.iter().all(|l| l.is_failure()),
            "no value perturbations"
        );
        assert!(delta.nodes.iter().all(|n| n.is_crash()));
        let crashes: Vec<&NodePerturbation> = delta.nodes.iter().filter(|n| n.is_crash()).collect();
        assert_eq!(crashes.len(), 1);
        assert_eq!(crashes[0].node, NodeId(2));
        assert_eq!(crashes[0].old_power, 100.0);
        // failed directed edges: links 1, 2, 3 → ids 2,3,4,5,6,7
        let mut ids: Vec<u32> = delta
            .links
            .iter()
            .filter(|l| l.is_failure())
            .map(|l| l.edge.0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3, 4, 5, 6, 7]);
        assert!(delta.has_failures());
        assert!(!delta.is_empty());
        // forced remap exactly when a host died
        assert!(delta.forces_remap(&[NodeId(0), NodeId(2)]));
        assert!(!delta.forces_remap(&[NodeId(0), NodeId(1), NodeId(3)]));

        // the sparse path classifies identically
        let sparse = NetworkDelta::from_changed_elements(
            &old,
            &failed,
            &[EdgeId(2), EdgeId(4), EdgeId(6)],
            &[NodeId(2)],
        )
        .unwrap();
        assert_eq!(sparse, delta);

        // restoring diffs back as ordinary perturbations
        let restore = NetworkDelta::between(&failed, &old).unwrap();
        assert!(!restore.links.iter().any(|l| l.is_failure()));
        assert!(!restore.nodes.iter().any(|n| n.is_crash()));
        assert_eq!(restore.links.len(), 6);
        assert_eq!(restore.nodes.len(), 1);
    }

    #[test]
    fn repair_after_failure_matches_a_cold_build_bit_for_bit() {
        let old = diamond();
        let cost = CostModel::default();
        let payloads = [1_000_000.0, 250_000.0];
        let sources: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();

        let closure = MetricClosure::new(&old, cost);
        closure.par_warm(&sources, &payloads, 1);
        let entries = closure.export();

        // cut the fast route's second hop, then crash the detour node
        for scenario in [0usize, 1] {
            let mut new = old.clone();
            if scenario == 0 {
                new.fail_link_symmetric(EdgeId(2)).unwrap();
            } else {
                new.fail_node(NodeId(2)).unwrap();
            }
            let delta = NetworkDelta::between(&old, &new).unwrap();
            assert!(delta.has_failures());

            let repaired = MetricClosure::new(&new, cost);
            let report = repair_closure(&repaired, &entries, &delta, 1);
            assert_eq!(report.kept + report.rebuilt, report.total);

            let cold = MetricClosure::new(&new, cost);
            cold.par_warm(&sources, &payloads, 1);

            let (a, b) = (repaired.export(), cold.export());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.key, y.key);
                let bits_a: Vec<u64> = x.tree.dist.iter().map(|d| d.to_bits()).collect();
                let bits_b: Vec<u64> = y.tree.dist.iter().map(|d| d.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "dist diverged (scenario {scenario})");
                assert_eq!(
                    x.tree.prev, y.tree.prev,
                    "prev diverged (scenario {scenario})"
                );
            }
        }
    }

    #[test]
    fn off_tree_failure_keeps_every_tree() {
        // the slow detour 0-2-3 sits on no shortest-path tree; cutting it
        // must keep everything (a cut prices at +∞, so rule 2 never fires)
        let old = diamond();
        let cost = CostModel::default();
        let sources: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();
        let closure = MetricClosure::new(&old, cost);
        closure.par_warm(&sources, &[1_000_000.0], 1);
        let entries = closure.export();

        // links 2 (0-2) and 3 (2-3) are the slow route; only trees rooted
        // at or reaching *through* them use them. Source 2's tree does use
        // its incident links, so cut only 0-2 and check the trees that
        // never traverse it are retained.
        let mut new = old.clone();
        new.fail_link_symmetric(EdgeId(4)).unwrap(); // undirected link 2 = 0-2
        let delta = NetworkDelta::between(&old, &new).unwrap();
        let target = MetricClosure::new(&new, cost);
        let report = repair_closure(&target, &entries, &delta, 1);
        assert_eq!(report.kept + report.rebuilt, report.total);
        // and byte-identity regardless of the kept/rebuilt split
        let cold = MetricClosure::new(&new, cost);
        cold.par_warm(&sources, &[1_000_000.0], 1);
        let (a, b) = (target.export(), cold.export());
        for (x, y) in a.iter().zip(&b) {
            let bits_a: Vec<u64> = x.tree.dist.iter().map(|d| d.to_bits()).collect();
            let bits_b: Vec<u64> = y.tree.dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
    }

    #[test]
    fn an_irrelevant_cost_increase_keeps_every_tree() {
        // ring 0-1-3-2-0 where 0-2 is so slow that every shortest path
        // reaches 2 via 3: link 0-2 sits on no tree and can't compete
        let mut b = Network::builder();
        let n0 = b.add_node(100.0).unwrap();
        let n1 = b.add_node(100.0).unwrap();
        let n2 = b.add_node(100.0).unwrap();
        let n3 = b.add_node(100.0).unwrap();
        b.add_link(n0, n1, 1000.0, 0.1).unwrap(); // link 0
        b.add_link(n1, n3, 1000.0, 0.1).unwrap(); // link 1
        b.add_link(n0, n2, 1.0, 0.1).unwrap(); // link 2: dead slow
        b.add_link(n2, n3, 1000.0, 0.1).unwrap(); // link 3
        let old = b.build().unwrap();

        let cost = CostModel::default();
        let sources: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();
        let closure = MetricClosure::new(&old, cost);
        closure.par_warm(&sources, &[1_000_000.0], 1);
        let entries = closure.export();

        // the dead-slow off-tree link gets even slower: rule 3 retains all
        let new = perturb_link(&old, 2, 0.5);
        let delta = NetworkDelta::between(&old, &new).unwrap();
        let target = MetricClosure::new(&new, cost);
        let report = repair_closure(&target, &entries, &delta, 1);
        assert_eq!(report.kept, report.total, "no tree traverses link 0-2");
        assert_eq!(report.rebuilt, 0);
        // and the repaired closure is still exactly a cold build
        let cold = MetricClosure::new(&new, cost);
        cold.par_warm(&sources, &[1_000_000.0], 1);
        let (a, b) = (target.export(), cold.export());
        for (x, y) in a.iter().zip(&b) {
            let bits_a: Vec<u64> = x.tree.dist.iter().map(|d| d.to_bits()).collect();
            let bits_b: Vec<u64> = y.tree.dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
            assert_eq!(x.tree.prev, y.tree.prev);
        }
    }
}
