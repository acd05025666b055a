//! Node / link / network model (§2.2 of the paper).

use crate::units::{compute_ms, serialization_ms};
use crate::{NetworkError, Result};
use elpc_netgraph::{algo, EdgeId, Graph, NodeId};
use serde::{Deserialize, Serialize};

/// A computing node: the paper's `NodeID` is the graph id; `ProcessingPower`
/// is the normalized scalar `p` of §2.2 ("a complex notion that combines …
/// processor frequency, bus speed, memory size, storage performance").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Normalized processing power `p` (complexity·bytes per ms). Must be
    /// positive for a compute-capable node.
    pub power: f64,
    /// Optional `NodeIP` (the paper carries one per node; purely
    /// informational here).
    pub ip: Option<String>,
    /// Optional human-readable name for reports and DOT output.
    pub name: Option<String>,
}

impl Node {
    /// A node with power `p` and no metadata.
    pub fn with_power(power: f64) -> Self {
        Node {
            power,
            ip: None,
            name: None,
        }
    }
}

/// A communication link: the paper's `LinkBWInMbps` (bandwidth `b`) and
/// `LinkDelayInMilliseconds` (minimum link delay `d`). `LinkID` is the graph
/// edge id; `startNodeID`/`endNodeID` are the edge endpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Bandwidth in Mbit/s.
    pub bw_mbps: f64,
    /// Minimum link delay (MLD) in milliseconds.
    pub mld_ms: f64,
}

impl Link {
    /// A link with the given bandwidth and MLD.
    pub fn new(bw_mbps: f64, mld_ms: f64) -> Self {
        Link { bw_mbps, mld_ms }
    }

    /// Full transport time `m/b + d` of §2.2, in ms, for `bytes` of data.
    #[inline]
    pub fn transfer_time_ms(&self, bytes: f64) -> f64 {
        serialization_ms(bytes, self.bw_mbps) + self.mld_ms
    }

    /// Transport time without the MLD term — what Eq. 1/3/4 literally use,
    /// though §2.2 defines `m/b + d`. Exposed so the cost model can toggle.
    #[inline]
    pub fn serialization_time_ms(&self, bytes: f64) -> f64 {
        serialization_ms(bytes, self.bw_mbps)
    }

    /// True when this link carries the *failure sentinel*: bandwidth exactly
    /// `0.0`. A failed link keeps its place in the graph (edge ids stay
    /// stable, which is what keeps repaired closures byte-comparable to cold
    /// builds) but every transfer over it costs `+∞`, so no shortest-path
    /// tree ever uses it.
    #[inline]
    pub fn is_failed(&self) -> bool {
        self.bw_mbps == 0.0
    }
}

/// The transport network `G = (V, E)`: a wrapper around
/// [`elpc_netgraph::Graph`] with node powers and link parameters, plus the
/// primitive cost queries every mapping algorithm uses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    graph: Graph<Node, Link>,
    /// Number of undirected links (each stored as two directed edges).
    links: usize,
}

impl Network {
    /// Starts an empty builder.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Materializes a network from a topology skeleton, asking the closures
    /// for each node's and link's parameters.
    pub fn from_topology(
        topo: &elpc_netgraph::gen::Topology,
        mut node_fn: impl FnMut(usize) -> Node,
        mut link_fn: impl FnMut(u32, u32) -> Link,
    ) -> Result<Network> {
        let mut b = Network::builder();
        for i in 0..topo.node_count() {
            b.push_node(node_fn(i))?;
        }
        for &(x, y) in topo.links() {
            b.add_link_payload(NodeId(x), NodeId(y), link_fn(x, y))?;
        }
        b.build()
    }

    /// The underlying graph (read-only).
    pub fn graph(&self) -> &Graph<Node, Link> {
        &self.graph
    }

    /// Number of computing nodes `k`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of undirected links `l` (the paper's "number of links").
    pub fn link_count(&self) -> usize {
        self.links
    }

    /// Processing power of `node`.
    ///
    /// # Panics
    /// Panics on an out-of-bounds id — mapping algorithms only hold valid
    /// ids by construction.
    #[inline]
    pub fn power(&self, node: NodeId) -> f64 {
        self.graph.node(node).expect("valid node id").power
    }

    /// The node payload.
    pub fn node(&self, node: NodeId) -> Result<&Node> {
        Ok(self.graph.node(node)?)
    }

    /// The link payload of a directed edge.
    pub fn link(&self, edge: EdgeId) -> Result<&Link> {
        Ok(&self.graph.edge(edge)?.payload)
    }

    /// Compute time of a module (complexity `c`, input `bytes`) on `node`:
    /// `c·m/p` (§2.2).
    #[inline]
    pub fn compute_time_ms(&self, node: NodeId, complexity: f64, bytes: f64) -> f64 {
        compute_ms(complexity, bytes, self.power(node))
    }

    /// Transfer time of `bytes` over the directed edge `edge`, including MLD.
    #[inline]
    pub fn transfer_time_ms(&self, edge: EdgeId, bytes: f64) -> f64 {
        self.graph
            .edge(edge)
            .expect("valid edge id")
            .payload
            .transfer_time_ms(bytes)
    }

    /// The fastest directed edge from `a` to `b` for a message of `bytes`
    /// (relevant with parallel links), or `None` when not adjacent.
    pub fn best_edge(&self, a: NodeId, b: NodeId, bytes: f64) -> Option<(EdgeId, f64)> {
        self.graph
            .neighbors(a)
            .filter(|nb| nb.node == b)
            .map(|nb| (nb.edge, self.transfer_time_ms(nb.edge, bytes)))
            .min_by(|x, y| x.1.partial_cmp(&y.1).expect("times are not NaN"))
    }

    /// All out-neighbors of `node`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = elpc_netgraph::Neighbor> + '_ {
        self.graph.neighbors(node)
    }

    /// Iterates over node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + Clone {
        self.graph.node_ids()
    }

    /// True when every node can reach every other (required for mapping).
    pub fn is_connected(&self) -> bool {
        algo::is_connected(&self.graph)
    }

    /// Structural validation: non-negative powers and bandwidths (exact
    /// `0.0` is the failure sentinel — see [`Link::is_failed`] and
    /// [`Network::fail_node`]), non-negative MLDs, non-empty, connected.
    ///
    /// The builder stays strict (it rejects zero powers and bandwidths), so
    /// a failed element can only arise by degrading a once-valid network —
    /// exactly the semantics of a fault.
    pub fn validate(&self) -> Result<()> {
        if self.graph.is_empty() {
            return Err(NetworkError::Invalid("network has no nodes".into()));
        }
        for (id, n) in self.graph.nodes() {
            check_node_parameters(id, n)?;
        }
        for (_, e) in self.graph.edges() {
            check_link_parameters(e.src, e.dst, &e.payload)?;
        }
        if !self.is_connected() {
            return Err(NetworkError::Invalid("network is not connected".into()));
        }
        Ok(())
    }

    /// Rebuilds a network from its parts: the nodes in id order, the
    /// directed edges in edge-id order, and the undirected link count.
    ///
    /// Adjacency is derived, never taken as given: each edge is appended in
    /// order, so edge ids, out-lists and [`Network::fingerprint`] equal those
    /// of the network the parts were read from. Every parameter must pass
    /// [`Network::validate`]'s rules (finite and non-negative, `0.0` being
    /// the failure sentinel) and every endpoint must name a node; an error
    /// names the first part that does not. Connectivity is *not* checked, so
    /// a disconnected network rebuilds and its solves report infeasibility.
    pub fn from_parts(
        nodes: Vec<Node>,
        edges: impl ExactSizeIterator<Item = (NodeId, NodeId, Link)>,
        links: usize,
    ) -> Result<Network> {
        let mut graph = Graph::with_capacity(nodes.len(), edges.len());
        for node in nodes {
            check_node_parameters(NodeId::from_index(graph.node_count()), &node)?;
            graph.add_node(node);
        }
        for (src, dst, link) in edges {
            check_link_parameters(src, dst, &link)?;
            graph.add_edge(src, dst, link)?;
        }
        Ok(Network { graph, links })
    }

    /// A structural fingerprint of the network: an FNV-1a hash over the
    /// node count and powers plus every directed edge's endpoints,
    /// bandwidth, and MLD (exact `f64` bit patterns). Two networks with the
    /// same fingerprint present identical inputs to every mapping
    /// algorithm; any perturbation of a power, bandwidth, or delay — or of
    /// the topology itself — changes it. Node metadata (`ip`, `name`) is
    /// deliberately excluded: it never enters a cost computation.
    ///
    /// This is the topology key of cross-instance caches
    /// (`elpc_workloads::ClosureBank`), not a cryptographic digest.
    pub fn fingerprint(&self) -> u64 {
        let mut h = elpc_netgraph::fnv::Fnv1a::new();
        h.write_usize(self.graph.node_count());
        for (_, n) in self.graph.nodes() {
            h.write_f64(n.power);
        }
        h.write_usize(self.graph.edge_count());
        for (_, e) in self.graph.edges() {
            h.write_usize(e.src.index());
            h.write_usize(e.dst.index());
            h.write_f64(e.payload.bw_mbps);
            h.write_f64(e.payload.mld_ms);
        }
        h.finish()
    }

    /// Mutable access to a link payload (both directions must be updated
    /// separately; [`Network::set_link_symmetric`] does both).
    pub fn link_mut(&mut self, edge: EdgeId) -> Result<&mut Link> {
        Ok(self.graph.edge_payload_mut(edge)?)
    }

    /// Updates the payload of `edge` *and* its symmetric twin (the edge
    /// created together with it by the undirected builder).
    pub fn set_link_symmetric(&mut self, edge: EdgeId, link: Link) -> Result<()> {
        let (src, dst) = {
            let e = self.graph.edge(edge)?;
            (e.src, e.dst)
        };
        *self.graph.edge_payload_mut(edge)? = link.clone();
        // the twin is the consecutive id (see netgraph invariant); fall back
        // to a scan when the network was hand-assembled asymmetrically
        let twin_guess = EdgeId(edge.0 ^ 1);
        if let Ok(t) = self.graph.edge(twin_guess) {
            if t.src == dst && t.dst == src {
                *self.graph.edge_payload_mut(twin_guess)? = link;
                return Ok(());
            }
        }
        if let Some(t) = self.graph.find_edge(dst, src) {
            *self.graph.edge_payload_mut(t)? = link;
        }
        Ok(())
    }

    /// Mutable node payload access (used by the dynamics models).
    pub fn node_mut(&mut self, node: NodeId) -> Result<&mut Node> {
        Ok(self.graph.node_mut(node)?)
    }

    /// Marks the undirected link of `edge` as failed: bandwidth `0.0` in
    /// both directions, MLD preserved. The edge stays in the graph — ids,
    /// indices, and the undirected-twin pairing are untouched — but every
    /// cost over it becomes `+∞`, so shortest-path trees route around it
    /// exactly as if it had been removed. Returns the link's state before
    /// the failure (for restores).
    pub fn fail_link_symmetric(&mut self, edge: EdgeId) -> Result<Link> {
        let old = self.link(edge)?.clone();
        self.set_link_symmetric(edge, Link::new(0.0, old.mld_ms))?;
        Ok(old)
    }

    /// Marks `node` as crashed: power `0.0` *and* every incident link failed
    /// in both directions (a dead host neither computes nor forwards).
    /// Returns the node's previous power plus the even (representative) edge
    /// id and prior payload of every incident link that was still healthy,
    /// so a restore can undo the crash exactly.
    pub fn fail_node(&mut self, node: NodeId) -> Result<(f64, Vec<(EdgeId, Link)>)> {
        let old_power = self.node(node)?.power;
        self.node_mut(node)?.power = 0.0;
        let incident: Vec<EdgeId> = self.graph.neighbors(node).map(|nb| nb.edge).collect();
        let mut failed = Vec::new();
        for edge in incident {
            // the even id of the undirected pair is the canonical handle
            let rep = EdgeId(edge.0 & !1);
            if !self.link(rep)?.is_failed() {
                let old = self.fail_link_symmetric(rep)?;
                failed.push((rep, old));
            }
        }
        Ok((old_power, failed))
    }

    /// True when `node` carries the crash sentinel (power exactly `0.0`).
    #[inline]
    pub fn node_is_failed(&self, node: NodeId) -> bool {
        self.power(node) == 0.0
    }
}

/// [`Network::validate`]'s rule for a node: power finite and non-negative
/// (exactly `0.0` is the crash sentinel).
fn check_node_parameters(id: NodeId, n: &Node) -> Result<()> {
    if !(n.power >= 0.0) || !n.power.is_finite() {
        return Err(NetworkError::BadNodeParameter {
            node: id,
            reason: format!(
                "power must be positive and finite (or exactly 0 = failed), got {}",
                n.power
            ),
        });
    }
    Ok(())
}

/// [`Network::validate`]'s rule for a directed edge: bandwidth finite and
/// non-negative (exactly `0.0` is the cut sentinel), MLD finite and
/// non-negative.
fn check_link_parameters(src: NodeId, dst: NodeId, link: &Link) -> Result<()> {
    if !(link.bw_mbps >= 0.0) || !link.bw_mbps.is_finite() {
        return Err(NetworkError::BadLinkParameter {
            endpoints: (src, dst),
            reason: format!(
                "bandwidth must be positive and finite (or exactly 0 = failed), got {}",
                link.bw_mbps
            ),
        });
    }
    if !(link.mld_ms >= 0.0) || !link.mld_ms.is_finite() {
        return Err(NetworkError::BadLinkParameter {
            endpoints: (src, dst),
            reason: format!("MLD must be non-negative and finite, got {}", link.mld_ms),
        });
    }
    Ok(())
}

/// Incremental builder for [`Network`], with parameter validation at each
/// step.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    graph: Graph<Node, Link>,
    links: usize,
}

impl NetworkBuilder {
    /// Adds a node with power `p`.
    pub fn add_node(&mut self, power: f64) -> Result<NodeId> {
        self.push_node(Node::with_power(power))
    }

    /// Adds a fully-specified node.
    pub fn push_node(&mut self, node: Node) -> Result<NodeId> {
        if !(node.power > 0.0) || !node.power.is_finite() {
            return Err(NetworkError::BadNodeParameter {
                node: NodeId::from_index(self.graph.node_count()),
                reason: format!("power must be positive and finite, got {}", node.power),
            });
        }
        Ok(self.graph.add_node(node))
    }

    /// Adds an undirected link with bandwidth `bw_mbps` and delay `mld_ms`.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bw_mbps: f64,
        mld_ms: f64,
    ) -> Result<(EdgeId, EdgeId)> {
        self.add_link_payload(a, b, Link::new(bw_mbps, mld_ms))
    }

    /// Adds an undirected link from a payload.
    pub fn add_link_payload(
        &mut self,
        a: NodeId,
        b: NodeId,
        link: Link,
    ) -> Result<(EdgeId, EdgeId)> {
        if !(link.bw_mbps > 0.0) || !link.bw_mbps.is_finite() {
            return Err(NetworkError::BadLinkParameter {
                endpoints: (a, b),
                reason: format!(
                    "bandwidth must be positive and finite, got {}",
                    link.bw_mbps
                ),
            });
        }
        if !(link.mld_ms >= 0.0) || !link.mld_ms.is_finite() {
            return Err(NetworkError::BadLinkParameter {
                endpoints: (a, b),
                reason: format!("MLD must be non-negative and finite, got {}", link.mld_ms),
            });
        }
        let ids = self.graph.add_undirected_edge(a, b, link)?;
        self.links += 1;
        Ok(ids)
    }

    /// Finalizes and validates the network.
    pub fn build(self) -> Result<Network> {
        let net = Network {
            graph: self.graph,
            links: self.links,
        };
        net.validate()?;
        Ok(net)
    }

    /// Finalizes without the connectivity check (used by tests that study
    /// infeasible mappings on disconnected networks).
    pub fn build_unchecked(self) -> Network {
        Network {
            graph: self.graph,
            links: self.links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3-node chain: 0 -(100 Mbps, 1ms)- 1 -(10 Mbps, 5ms)- 2
    fn chain() -> Network {
        let mut b = Network::builder();
        let n0 = b.add_node(1000.0).unwrap();
        let n1 = b.add_node(500.0).unwrap();
        let n2 = b.add_node(2000.0).unwrap();
        b.add_link(n0, n1, 100.0, 1.0).unwrap();
        b.add_link(n1, n2, 10.0, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_counts() {
        let net = chain();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 2);
        assert_eq!(net.graph().edge_count(), 4);
        assert!(net.is_connected());
    }

    #[test]
    fn transfer_time_includes_mld() {
        let net = chain();
        // edge 0: 100 Mbps, 1 ms MLD; 1 MB = 80 ms serialization
        let t = net.transfer_time_ms(EdgeId(0), 1_000_000.0);
        assert!((t - 81.0).abs() < 1e-9, "got {t}");
        // zero-byte message still pays the MLD
        assert!((net.transfer_time_ms(EdgeId(0), 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compute_time_uses_node_power() {
        let net = chain();
        // node 1: power 500 → complexity 2 on 1000 bytes = 4 ms
        let t = net.compute_time_ms(NodeId(1), 2.0, 1000.0);
        assert!((t - 4.0).abs() < 1e-12);
    }

    #[test]
    fn best_edge_picks_fastest_parallel_link() {
        let mut b = Network::builder();
        let a = b.add_node(1.0).unwrap();
        let c = b.add_node(1.0).unwrap();
        b.add_link(a, c, 10.0, 0.0).unwrap();
        b.add_link(a, c, 1000.0, 0.0).unwrap(); // much faster
        let net = b.build().unwrap();
        let (_, t) = net.best_edge(a, c, 1_000_000.0).unwrap();
        assert!((t - 8.0).abs() < 1e-9); // 1 MB over 1000 Mbps = 8 ms
        assert_eq!(
            net.best_edge(c, NodeId(0), 1.0).map(|x| x.1 > 0.0),
            Some(true)
        );
        assert!(net.best_edge(a, NodeId(7), 1.0).is_none());
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        let mut b = Network::builder();
        assert!(b.add_node(0.0).is_err());
        assert!(b.add_node(f64::NAN).is_err());
        let a = b.add_node(1.0).unwrap();
        let c = b.add_node(1.0).unwrap();
        assert!(b.add_link(a, c, 0.0, 1.0).is_err());
        assert!(b.add_link(a, c, -3.0, 1.0).is_err());
        assert!(b.add_link(a, c, 10.0, -1.0).is_err());
        assert!(b.add_link(a, c, 10.0, f64::INFINITY).is_err());
    }

    #[test]
    fn build_rejects_disconnected_networks() {
        let mut b = Network::builder();
        b.add_node(1.0).unwrap();
        b.add_node(1.0).unwrap();
        assert!(matches!(b.build(), Err(NetworkError::Invalid(_))));
    }

    #[test]
    fn build_unchecked_allows_disconnected_for_feasibility_studies() {
        let mut b = Network::builder();
        b.add_node(1.0).unwrap();
        b.add_node(1.0).unwrap();
        let net = b.build_unchecked();
        assert!(!net.is_connected());
        assert!(net.validate().is_err());
    }

    #[test]
    fn empty_network_is_invalid() {
        let b = Network::builder();
        assert!(b.build().is_err());
    }

    #[test]
    fn set_link_symmetric_updates_both_directions() {
        let mut net = chain();
        net.set_link_symmetric(EdgeId(0), Link::new(50.0, 2.0))
            .unwrap();
        assert_eq!(net.link(EdgeId(0)).unwrap().bw_mbps, 50.0);
        assert_eq!(net.link(EdgeId(1)).unwrap().bw_mbps, 50.0);
        // the other link is untouched
        assert_eq!(net.link(EdgeId(2)).unwrap().bw_mbps, 10.0);
    }

    #[test]
    fn from_topology_assigns_parameters_per_element() {
        let topo = elpc_netgraph::gen::ring(4).unwrap();
        let net = Network::from_topology(
            &topo,
            |i| Node::with_power(100.0 * (i + 1) as f64),
            |a, b| Link::new((a + b + 1) as f64, 0.1),
        )
        .unwrap();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.link_count(), 4);
        assert_eq!(net.power(NodeId(2)), 300.0);
    }

    #[test]
    fn serde_round_trip() {
        let net = chain();
        let json = serde_json::to_string(&net).unwrap();
        let net2: Network = serde_json::from_str(&json).unwrap();
        assert_eq!(net2.node_count(), 3);
        assert_eq!(net2.link_count(), 2);
        assert_eq!(net2.power(NodeId(0)), 1000.0);
        assert!(net2.validate().is_ok());
    }

    #[test]
    fn fingerprint_tracks_solver_relevant_state_only() {
        let a = chain();
        let b = chain();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same build, same print");
        // bandwidth perturbation changes it
        let mut c = chain();
        c.set_link_symmetric(EdgeId(0), Link::new(100.0 + 1e-9, 1.0))
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // MLD perturbation changes it
        let mut d = chain();
        d.set_link_symmetric(EdgeId(0), Link::new(100.0, 1.0 + 1e-9))
            .unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
        // node power perturbation changes it
        let mut e = chain();
        e.node_mut(NodeId(1)).unwrap().power += 1e-9;
        assert_ne!(a.fingerprint(), e.fingerprint());
        // metadata does not
        let mut f = chain();
        f.node_mut(NodeId(0)).unwrap().name = Some("renamed".into());
        assert_eq!(a.fingerprint(), f.fingerprint());
    }

    #[test]
    fn failed_link_is_infinitely_slow_but_stays_in_the_graph() {
        let mut net = chain();
        let old = net.fail_link_symmetric(EdgeId(0)).unwrap();
        assert_eq!(old.bw_mbps, 100.0);
        assert!(net.link(EdgeId(0)).unwrap().is_failed());
        assert!(net.link(EdgeId(1)).unwrap().is_failed());
        assert_eq!(net.link(EdgeId(0)).unwrap().mld_ms, 1.0, "MLD preserved");
        assert!(net.transfer_time_ms(EdgeId(0), 1.0).is_infinite());
        // structurally unchanged: ids stable, still "connected" as wiring
        assert_eq!(net.link_count(), 2);
        assert!(net.is_connected());
        // the degraded network still validates (failure is a legal state)
        assert!(net.validate().is_ok());
        // restore: put the old payload back, fully healthy again
        net.set_link_symmetric(EdgeId(0), old).unwrap();
        assert!(!net.link(EdgeId(0)).unwrap().is_failed());
        assert_eq!(net.fingerprint(), chain().fingerprint());
    }

    #[test]
    fn failed_node_kills_power_and_incident_links() {
        let mut net = chain();
        let (old_power, failed) = net.fail_node(NodeId(1)).unwrap();
        assert_eq!(old_power, 500.0);
        assert!(net.node_is_failed(NodeId(1)));
        // both incident undirected links fail, reported by even id
        let mut ids: Vec<u32> = failed.iter().map(|(e, _)| e.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2]);
        for e in [0u32, 1, 2, 3] {
            assert!(net.link(EdgeId(e)).unwrap().is_failed());
        }
        assert!(net.compute_time_ms(NodeId(1), 1.0, 1.0).is_infinite());
        assert!(net.validate().is_ok());
        // exact restore from the returned undo-log
        net.node_mut(NodeId(1)).unwrap().power = old_power;
        for (e, link) in failed {
            net.set_link_symmetric(e, link).unwrap();
        }
        assert_eq!(net.fingerprint(), chain().fingerprint());
    }

    #[test]
    fn validate_still_rejects_negative_and_nonfinite_parameters() {
        let mut net = chain();
        net.node_mut(NodeId(0)).unwrap().power = -1.0;
        assert!(net.validate().is_err());
        let mut net = chain();
        net.node_mut(NodeId(0)).unwrap().power = f64::NAN;
        assert!(net.validate().is_err());
        let mut net = chain();
        net.link_mut(EdgeId(0)).unwrap().bw_mbps = -5.0;
        assert!(net.validate().is_err());
        let mut net = chain();
        net.link_mut(EdgeId(0)).unwrap().bw_mbps = f64::INFINITY;
        assert!(net.validate().is_err());
    }

    /// The parts of `net`, as a reader of its serialized form sees them.
    fn parts(net: &Network) -> (Vec<Node>, Vec<(NodeId, NodeId, Link)>) {
        let nodes = net.graph().nodes().map(|(_, n)| n.clone()).collect();
        let edges = net
            .graph()
            .edges()
            .map(|(_, e)| (e.src, e.dst, e.payload.clone()))
            .collect();
        (nodes, edges)
    }

    #[test]
    fn from_parts_rebuilds_ids_adjacency_and_fingerprint() {
        let mut net = chain();
        net.link_mut(EdgeId(1)).unwrap().bw_mbps = 7.0; // one direction only
        net.fail_node(NodeId(2)).unwrap();
        let (nodes, edges) = parts(&net);
        let back = Network::from_parts(nodes, edges.into_iter(), net.link_count()).unwrap();
        assert_eq!(back.fingerprint(), net.fingerprint());
        assert_eq!(back.link_count(), 2);
        for v in net.node_ids() {
            let a: Vec<_> = net.neighbors(v).collect();
            let b: Vec<_> = back.neighbors(v).collect();
            assert_eq!(a, b, "out-list of {v}");
        }
    }

    #[test]
    fn from_parts_refuses_bad_endpoints_and_parameters_but_not_disconnection() {
        let (nodes, edges) = parts(&chain());
        let with_edge = |e: (NodeId, NodeId, Link)| {
            let mut edges = edges.clone();
            edges[2] = e;
            Network::from_parts(nodes.clone(), edges.into_iter(), 2)
        };
        assert!(matches!(
            with_edge((NodeId(1), NodeId(9), Link::new(1.0, 0.0))),
            Err(NetworkError::Graph(_))
        ));
        assert!(matches!(
            with_edge((NodeId(1), NodeId(1), Link::new(1.0, 0.0))),
            Err(NetworkError::Graph(_))
        ));
        for (bw, mld) in [
            (f64::NAN, 0.0),
            (-1.0, 0.0),
            (1.0, f64::INFINITY),
            (1.0, -0.5),
        ] {
            assert!(matches!(
                with_edge((NodeId(1), NodeId(2), Link::new(bw, mld))),
                Err(NetworkError::BadLinkParameter { .. })
            ));
        }
        let mut bad = nodes.clone();
        bad[1].power = f64::NEG_INFINITY;
        assert!(matches!(
            Network::from_parts(bad, edges.clone().into_iter(), 2),
            Err(NetworkError::BadNodeParameter { .. })
        ));
        let islands = Network::from_parts(nodes, std::iter::empty(), 0).unwrap();
        assert!(!islands.is_connected());
    }

    #[test]
    fn node_metadata_is_preserved() {
        let mut b = Network::builder();
        b.push_node(Node {
            power: 10.0,
            ip: Some("192.168.0.1".into()),
            name: Some("source".into()),
        })
        .unwrap();
        b.push_node(Node::with_power(5.0)).unwrap();
        b.add_link(NodeId(0), NodeId(1), 10.0, 0.0).unwrap();
        let net = b.build().unwrap();
        assert_eq!(
            net.node(NodeId(0)).unwrap().ip.as_deref(),
            Some("192.168.0.1")
        );
        assert_eq!(net.node(NodeId(0)).unwrap().name.as_deref(), Some("source"));
        assert_eq!(net.node(NodeId(1)).unwrap().ip, None);
    }
}
