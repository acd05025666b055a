//! The analytic cost model: Eq. 1 (end-to-end delay) and Eq. 2 (bottleneck /
//! frame rate) of §2.3.

use crate::{Instance, Mapping, Result};
use elpc_netgraph::NodeId;
use serde::{Deserialize, Serialize};

/// Cost-model configuration.
///
/// `include_mld` resolves the paper's internal inconsistency (DESIGN.md
/// erratum 1): §2.2 defines `T_transport = m/b + d` but Eq. 1/3/4 write only
/// `m/b`. The default **includes** the minimum link delay, matching the
/// prose definition and the magnitude of the published results; ablation A1
/// measures the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Include the minimum-link-delay term `d` in transport times.
    pub include_mld: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { include_mld: true }
    }
}

impl CostModel {
    /// A structural fingerprint of the configuration, mixed into cache
    /// keys (`elpc_workloads::ClosureBank`) so closures computed under
    /// different cost models never collide.
    ///
    /// The exhaustive destructuring is deliberate: adding a field to
    /// `CostModel` fails to compile here until the new field is mixed in,
    /// so the cache key can never silently ignore it.
    pub fn fingerprint(&self) -> u64 {
        let CostModel { include_mld } = *self;
        let mut h = elpc_netgraph::fnv::Fnv1a::new();
        h.write_u64(include_mld as u64);
        h.finish()
    }
}

/// One stage of a mapped pipeline's timeline — the breakdown behind both
/// objectives, and the data for the Fig. 3/4 annotations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stage {
    /// Group `position` computing on `node`: modules `modules`, total
    /// `ms` milliseconds.
    Compute {
        /// Path position (0-based).
        position: usize,
        /// Executing node.
        node: NodeId,
        /// Module index range of the group.
        modules: std::ops::Range<usize>,
        /// Compute time in ms.
        ms: f64,
    },
    /// Transfer from path position `from_position` to the next: `bytes`
    /// over the chosen link, `ms` milliseconds.
    Transfer {
        /// Source path position.
        from_position: usize,
        /// Bytes moved (the last module of the group's output).
        bytes: f64,
        /// Transfer time in ms.
        ms: f64,
    },
}

impl Stage {
    /// The stage's time in ms.
    pub fn ms(&self) -> f64 {
        match self {
            Stage::Compute { ms, .. } | Stage::Transfer { ms, .. } => *ms,
        }
    }

    /// True for compute stages.
    pub fn is_compute(&self) -> bool {
        matches!(self, Stage::Compute { .. })
    }
}

impl CostModel {
    /// Transport time of `bytes` over the best direct link `a → b`
    /// (§2.2's `m/b + d`, MLD per configuration), or `None` when the nodes
    /// are not adjacent.
    pub fn link_transfer_ms(
        &self,
        net: &elpc_netsim::Network,
        a: NodeId,
        b: NodeId,
        bytes: f64,
    ) -> Option<f64> {
        net.graph()
            .neighbors(a)
            .filter(|nb| nb.node == b)
            .map(|nb| self.edge_transfer_ms(net, nb.edge, bytes))
            .min_by(|x, y| x.partial_cmp(y).expect("transfer times are not NaN"))
    }

    /// Transport time of `bytes` over a specific directed edge.
    pub fn edge_transfer_ms(
        &self,
        net: &elpc_netsim::Network,
        edge: elpc_netgraph::EdgeId,
        bytes: f64,
    ) -> f64 {
        self.raw_link_transfer_ms(net.link(edge).expect("valid edge id"), bytes)
    }

    /// Transport time of `bytes` over a bare [`elpc_netsim::Link`] value,
    /// independent of any network. This is [`Self::edge_transfer_ms`]
    /// factored down to the link itself, and is bit-identical to it for
    /// the edge carrying `link` — which is what lets the incremental
    /// (churn) layer price a perturbed edge's old and new cost without
    /// materializing two networks.
    pub fn raw_link_transfer_ms(&self, link: &elpc_netsim::Link, bytes: f64) -> f64 {
        if self.include_mld {
            link.transfer_time_ms(bytes)
        } else {
            link.serialization_time_ms(bytes)
        }
    }

    /// Full per-stage timeline of a mapping (validated against `inst`).
    ///
    /// Stages alternate Compute(g1), Transfer(g1→g2), Compute(g2), … —
    /// exactly the terms of Eq. 1/2. Intra-group transfers are free (§2.3:
    /// "the inter-module transport time within one group on the same node
    /// is negligible").
    pub fn stage_times(&self, inst: &Instance<'_>, mapping: &Mapping) -> Result<Vec<Stage>> {
        mapping.validate(inst, false)?;
        let net = inst.network;
        let pipe = inst.pipeline;
        let mut stages = Vec::with_capacity(mapping.q() * 2 - 1);
        let groups: Vec<(NodeId, std::ops::Range<usize>)> = mapping.groups().collect();
        for (pos, (node, modules)) in groups.iter().enumerate() {
            let power = net.power(*node);
            let work: f64 = modules.clone().map(|j| pipe.compute_work(j)).sum();
            let ms = if work == 0.0 { 0.0 } else { work / power };
            stages.push(Stage::Compute {
                position: pos,
                node: *node,
                modules: modules.clone(),
                ms,
            });
            if pos + 1 < groups.len() {
                // m(g_i): the output of the group's last module
                let bytes = pipe.module(modules.end - 1).output_bytes;
                let ms = self
                    .link_transfer_ms(net, *node, groups[pos + 1].0, bytes)
                    .expect("validate() guarantees adjacency");
                stages.push(Stage::Transfer {
                    from_position: pos,
                    bytes,
                    ms,
                });
            }
        }
        Ok(stages)
    }

    /// Eq. 1 — total end-to-end delay in ms.
    pub fn delay_ms(&self, inst: &Instance<'_>, mapping: &Mapping) -> Result<f64> {
        Ok(self.stage_times(inst, mapping)?.iter().map(Stage::ms).sum())
    }

    /// Eq. 2 — the bottleneck stage time in ms (maximum over group compute
    /// times and inter-group transfers).
    ///
    /// Defined for any mapping shape; the §3.1.2 *no-reuse* problem
    /// additionally requires [`Mapping::is_one_to_one`], which the solvers
    /// enforce. (Grouped mappings are used by the §5 "frame rate with node
    /// reuse" extension.)
    pub fn bottleneck_ms(&self, inst: &Instance<'_>, mapping: &Mapping) -> Result<f64> {
        Ok(self
            .stage_times(inst, mapping)?
            .iter()
            .map(Stage::ms)
            .fold(0.0, f64::max))
    }

    /// The stage achieving the bottleneck (for Fig. 4's "the bottleneck is
    /// located on the last node" style reporting).
    pub fn bottleneck_stage(&self, inst: &Instance<'_>, mapping: &Mapping) -> Result<Stage> {
        let stages = self.stage_times(inst, mapping)?;
        Ok(stages
            .into_iter()
            .max_by(|a, b| a.ms().partial_cmp(&b.ms()).expect("times are not NaN"))
            .expect("mappings have at least one stage"))
    }

    /// Eq. 2 reciprocal — frames per second.
    pub fn frame_rate_fps(&self, inst: &Instance<'_>, mapping: &Mapping) -> Result<f64> {
        Ok(elpc_netsim::units::frame_rate_fps(
            self.bottleneck_ms(inst, mapping)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MappingError;
    use elpc_netsim::Network;
    use elpc_pipeline::{Module, Pipeline};

    /// The worked micro-instance used across solver tests:
    ///
    /// nodes: 0 (p=100, src) — 1 (p=50) — 2 (p=200, dst), line topology
    /// links: 0-1 (1 Mbps, 2 ms), 1-2 (2 Mbps, 1 ms)
    /// pipeline: source (m0=1e5), stage (c=2, m1=5e4), sink (c=1)
    fn fixture() -> (Network, Pipeline) {
        let mut b = Network::builder();
        let n0 = b.add_node(100.0).unwrap();
        let n1 = b.add_node(50.0).unwrap();
        let n2 = b.add_node(200.0).unwrap();
        b.add_link(n0, n1, 1.0, 2.0).unwrap();
        b.add_link(n1, n2, 2.0, 1.0).unwrap();
        let net = b.build().unwrap();
        let pipe = Pipeline::new(vec![
            Module::new(0.0, 1e5),
            Module::new(2.0, 5e4),
            Module::new(1.0, 0.0),
        ])
        .unwrap();
        (net, pipe)
    }

    #[test]
    fn delay_matches_hand_computation() {
        let (net, pipe) = fixture();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        // mapping: module 0 on n0, module 1 on n1, module 2 on n2
        let m = Mapping::from_parts(vec![NodeId(0), NodeId(1), NodeId(2)], vec![1, 1, 1]).unwrap();
        // transfer 1e5 B over 1 Mbps: 1e5*8/1e6 s = 0.8 s = 800 ms, + 2 MLD
        // compute module 1 on n1: 2*1e5/50 = 4000 ms
        // transfer 5e4 B over 2 Mbps: 5e4*8/2e6 = 0.2 s = 200 ms + 1 MLD
        // compute module 2 on n2: 1*5e4/200 = 250 ms
        let cm = CostModel::default();
        let d = cm.delay_ms(&inst, &m).unwrap();
        assert!(
            (d - (802.0 + 4000.0 + 201.0 + 250.0)).abs() < 1e-9,
            "got {d}"
        );
        // without MLD, 3 ms less
        let cm = CostModel { include_mld: false };
        let d2 = cm.delay_ms(&inst, &m).unwrap();
        assert!((d - d2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_is_the_slowest_stage() {
        let (net, pipe) = fixture();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let m = Mapping::from_parts(vec![NodeId(0), NodeId(1), NodeId(2)], vec![1, 1, 1]).unwrap();
        let cm = CostModel::default();
        // stages: compute0 = 0, xfer 802, compute1 = 4000, xfer 201,
        // compute2 = 250 → bottleneck 4000 (module 1 on weak node 1)
        let b = cm.bottleneck_ms(&inst, &m).unwrap();
        assert!((b - 4000.0).abs() < 1e-9);
        match cm.bottleneck_stage(&inst, &m).unwrap() {
            Stage::Compute { node, modules, .. } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(modules, 1..2);
            }
            s => panic!("expected compute bottleneck, got {s:?}"),
        }
        let fps = cm.frame_rate_fps(&inst, &m).unwrap();
        assert!((fps - 0.25).abs() < 1e-12);
    }

    #[test]
    fn grouping_avoids_transfers() {
        let (net, pipe) = fixture();
        // modules 0 and 1 grouped on the source: no first transfer; the
        // source is powerful (p=100) so compute is 2*1e5/100 = 2000
        let m = Mapping::from_parts(vec![NodeId(0), NodeId(1), NodeId(2)], vec![2, 0, 1]);
        assert!(m.is_err()); // empty group forbidden — regroup properly
                             // proper grouped mapping skips node 1 entirely? 0 and 2 are not
                             // adjacent, so the path must still pass node 1 with some module.
                             // Put modules {0,1} on n0, module {2} must traverse n1 — not
                             // expressible without a module on n1; instead test grouping {0,1}
                             // on n0 in a 3-group walk is impossible, so group {0,1} on n0 and
                             // {2} on n1 with dst=n1:
        let inst2 = Instance::new(&net, &pipe, NodeId(0), NodeId(1)).unwrap();
        let m = Mapping::from_parts(vec![NodeId(0), NodeId(1)], vec![2, 1]).unwrap();
        let cm = CostModel::default();
        let stages = cm.stage_times(&inst2, &m).unwrap();
        assert_eq!(stages.len(), 3); // compute, transfer, compute
                                     // group 0 compute: module1 on n0 = 2*1e5/100 = 2000 ms
        assert!((stages[0].ms() - 2000.0).abs() < 1e-9);
        // transfer m1 = 5e4 B over 1 Mbps + 2: 400 + 2
        assert!((stages[1].ms() - 402.0).abs() < 1e-9);
        // sink compute on n1: 1*5e4/50 = 1000 ms
        assert!((stages[2].ms() - 1000.0).abs() < 1e-9);
        assert!((cm.delay_ms(&inst2, &m).unwrap() - 3402.0).abs() < 1e-9);
    }

    #[test]
    fn whole_pipeline_on_one_node_has_no_transfers() {
        let (net, pipe) = fixture();
        // src == dst == node 0; q = 1 ("the path reduces to a single
        // computer when q = 1", §2.3)
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(0)).unwrap();
        let m = Mapping::from_parts(vec![NodeId(0)], vec![3]).unwrap();
        let cm = CostModel::default();
        let stages = cm.stage_times(&inst, &m).unwrap();
        assert_eq!(stages.len(), 1);
        // all compute on n0: (2*1e5 + 1*5e4)/100 = 2500 ms
        assert!((cm.delay_ms(&inst, &m).unwrap() - 2500.0).abs() < 1e-9);
        assert!((cm.bottleneck_ms(&inst, &m).unwrap() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_mappings_are_refused_by_the_cost_model() {
        let (net, pipe) = fixture();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        // wrong endpoint
        let m = Mapping::from_parts(vec![NodeId(0), NodeId(1)], vec![2, 1]).unwrap();
        let cm = CostModel::default();
        assert!(matches!(
            cm.delay_ms(&inst, &m),
            Err(MappingError::InvalidMapping(_))
        ));
    }

    #[test]
    fn source_module_contributes_no_compute_anywhere() {
        let (net, pipe) = fixture();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let m = Mapping::from_parts(vec![NodeId(0), NodeId(1), NodeId(2)], vec![1, 1, 1]).unwrap();
        let cm = CostModel::default();
        let stages = cm.stage_times(&inst, &m).unwrap();
        assert_eq!(stages[0].ms(), 0.0);
        assert!(stages[0].is_compute());
    }

    #[test]
    fn parallel_links_use_the_fastest() {
        let mut b = Network::builder();
        let a = b.add_node(10.0).unwrap();
        let c = b.add_node(10.0).unwrap();
        b.add_link(a, c, 1.0, 0.0).unwrap();
        b.add_link(a, c, 100.0, 0.0).unwrap();
        let net = b.build().unwrap();
        let cm = CostModel::default();
        let t = cm.link_transfer_ms(&net, a, c, 1e6).unwrap();
        assert!((t - 80.0).abs() < 1e-9); // the 100 Mbps link
        assert_eq!(cm.link_transfer_ms(&net, a, NodeId(9), 1.0), None);
    }
}
