//! # elpc-mapping — the paper's primary contribution
//!
//! Maps the modules of a linear computing pipeline onto nodes of a
//! distributed network to (i) minimize end-to-end delay for interactive
//! applications, or (ii) maximize frame rate for streaming applications
//! (§2.3 of Wu, Gu, Zhu & Rao, IPDPS 2008).
//!
//! ## Solvers
//!
//! | module | algorithm | paper section | guarantee |
//! |--------|-----------|---------------|-----------|
//! | [`elpc_delay`] | ELPC dynamic program, node reuse | §3.1.1 (Eq. 3/4, Fig. 1) | optimal, `O(n·\|E\|)` |
//! | [`elpc_rate`]  | ELPC dynamic program, no reuse   | §3.1.2 (Eq. 5/6) | heuristic (exact problem is NP-complete) |
//! | [`exact`]      | exhaustive search                | — | optimal, exponential; small instances only |
//! | [`streamline`] | Streamline [Agarwalla et al. 2006] adapted to linear pipelines | §3.2 | heuristic, `O(m·n²)` |
//! | [`greedy`]     | local greedy                     | §3.3 | heuristic, `O(m·n)` |
//! | [`metaheuristic`] | simulated annealing + genetic search over distinct-host assignments (rate) | related work | heuristic, seeded-deterministic |
//! | [`tabu`]       | tabu search over distinct-host assignments (rate) | related work | heuristic, seeded-deterministic |
//! | [`lns`]        | adaptive large-neighborhood search (destroy/repair over stage segments) | related work | heuristic, seeded-deterministic |
//! | [`portfolio`]  | concurrent slate race over registry members | — | best member wins, deterministic tie-break |
//!
//! ## The `Solver` registry and `SolveContext`
//!
//! All seventeen solver entry points (the algorithms × their objectives —
//! strict, routed, local-search, and portfolio variants) are registered behind the [`Solver`] trait;
//! [`registry()`] enumerates them and [`solver()`] looks one up by name.
//! Every solver receives a [`SolveContext`] — the instance, the cost model,
//! and a shared [`MetricClosure`] that lazily caches the routed all-pairs
//! transfer trees (one Dijkstra per `(payload size, source node)`). Build
//! one context per instance and run as many algorithms as you like against
//! it: the all-pairs work that used to be recomputed inside every routed
//! solver is paid exactly once per instance.
//!
//! ```
//! use elpc_mapping::{registry, solver, CostModel, Instance, SolveContext};
//! # let mut b = elpc_netsim::Network::builder();
//! # let s = b.add_node(100.0).unwrap();
//! # let m = b.add_node(1000.0).unwrap();
//! # let d = b.add_node(100.0).unwrap();
//! # b.add_link(s, m, 100.0, 0.5).unwrap();
//! # b.add_link(m, d, 100.0, 0.5).unwrap();
//! # let network = b.build().unwrap();
//! # let pipeline = elpc_pipeline::Pipeline::from_stages(1e6, &[(2.0, 1e5)], 1.0).unwrap();
//! let inst = Instance::new(&network, &pipeline, s, d).unwrap();
//! let ctx = SolveContext::new(inst, CostModel::default());
//! for entry in registry() {
//!     let _ = entry.solve(&ctx); // routed trees are shared across entries
//! }
//! let optimal = solver("elpc_delay").unwrap().solve(&ctx).unwrap();
//! assert!(optimal.objective_ms > 0.0);
//! ```
//!
//! ## Objectives (§2.3)
//!
//! * **End-to-end delay** (Eq. 1): total compute plus transport time along
//!   the mapped path — [`CostModel::delay_ms`].
//! * **Frame rate** (Eq. 2): reciprocal of the bottleneck stage time —
//!   [`CostModel::bottleneck_ms`] / [`CostModel::frame_rate_fps`].
//!
//! A [`Mapping`] is a path of network nodes plus a partition of the module
//! chain into contiguous groups, one group per path position — exactly the
//! paper's "decompose the pipeline into q groups … and map them onto a
//! selected path P". [`Mapping::validate`] enforces the structural
//! invariants; the cost model refuses invalid mappings.
//!
//! ## Faithfulness knobs
//!
//! [`CostModel::include_mld`] toggles the minimum-link-delay term the
//! paper's prose defines (§2.2) but its equations drop (Eq. 1/3/4;
//! ablation A1). [`elpc_rate::RateConfig::k_labels`] widens the rate DP
//! from the paper's single label per cell to a K-best label set
//! (ablation A2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod cost;
pub mod delta;
pub mod elpc_delay;
pub mod elpc_rate;
mod error;
pub mod eval;
pub mod exact;
pub mod greedy;
pub mod lns;
mod mapping;
pub mod metaheuristic;
pub mod portfolio;
pub mod routed;
mod solver;
pub mod streamline;
pub mod tabu;
#[cfg(test)]
mod test_fixtures;

pub use context::{CachedTree, ClosureStats, MetricClosure, SolveContext, TreeKey};
pub use cost::{CostModel, Stage};
pub use delta::{DeltaApplyError, LinkPerturbation, NetworkDelta, NodePerturbation, RepairReport};
pub use error::MappingError;
pub use eval::{BoundedEval, DeltaEval, EvalKernel, MoveSpec};
pub use lns::LnsConfig;
pub use mapping::{AssignmentSolution, DelaySolution, Mapping, RateSolution};
pub use metaheuristic::{AnnealConfig, GeneticConfig};
pub use portfolio::{MemberReport, PortfolioSolution};
pub use solver::{registry, solver, solvers_for, Objective, Solution, Solver};
pub use tabu::TabuConfig;

pub use elpc_netgraph::{EdgeId, NodeId};

/// Result alias for mapping operations.
pub type Result<T> = std::result::Result<T, MappingError>;

/// A mapping problem instance: which pipeline goes onto which network,
/// between which endpoints, under which cost model.
///
/// §4.1: "For each mapping problem, we designate a source node and a
/// destination node to run the first module and the last module of the
/// pipeline" — `src` hosts module 0 (the data source), `dst` hosts module
/// `n-1` (the end user).
#[derive(Debug, Clone, Copy)]
pub struct Instance<'a> {
    /// The transport network.
    pub network: &'a elpc_netsim::Network,
    /// The computing pipeline.
    pub pipeline: &'a elpc_pipeline::Pipeline,
    /// Node running the first module (where the raw data lives).
    pub src: NodeId,
    /// Node running the last module (where the end user sits).
    pub dst: NodeId,
}

impl<'a> Instance<'a> {
    /// Builds an instance, validating that the endpoints exist.
    pub fn new(
        network: &'a elpc_netsim::Network,
        pipeline: &'a elpc_pipeline::Pipeline,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Self> {
        network
            .graph()
            .check_node(src)
            .map_err(elpc_netsim::NetworkError::from)?;
        network
            .graph()
            .check_node(dst)
            .map_err(elpc_netsim::NetworkError::from)?;
        Ok(Instance {
            network,
            pipeline,
            src,
            dst,
        })
    }

    /// Number of modules `n`.
    pub fn n_modules(&self) -> usize {
        self.pipeline.len()
    }

    /// The structural screens every distinct-host (no node reuse) solver
    /// shares: `n ≤ k` and `src ≠ dst`. One definition so the routed-exact
    /// enumeration and the metaheuristics cannot drift apart.
    pub(crate) fn ensure_distinct_hosts_feasible(&self) -> Result<()> {
        let n = self.n_modules();
        let k = self.network.node_count();
        if n > k {
            return Err(MappingError::Infeasible(format!(
                "{n} modules need {n} distinct hosts, network has {k}"
            )));
        }
        if self.src == self.dst {
            return Err(MappingError::Infeasible(
                "source and destination coincide; distinct hosts are impossible".into(),
            ));
        }
        Ok(())
    }

    /// Necessary feasibility conditions (§4.3): with node reuse the hop
    /// distance from `src` to `dst` must not exceed `n - 1`; without reuse
    /// additionally `n ≤ k` and a simple path of exactly `n` nodes must be
    /// *possible* in hop terms. (Sufficiency for the no-reuse case is the
    /// NP-complete part — this is only the cheap screen.)
    pub fn hop_feasible(&self, node_reuse: bool) -> bool {
        let dists = elpc_netgraph::algo::hop_distances(self.network.graph(), self.src);
        let Some(d) = dists[self.dst.index()] else {
            return false;
        };
        let n = self.n_modules();
        if (d as usize) > n - 1 {
            return false;
        }
        if !node_reuse {
            if n > self.network.node_count() {
                return false;
            }
            // parity is irrelevant on general graphs, but a same-node
            // endpoint pair can never host a ≥2-module simple path start/end
            if self.src == self.dst && n >= 2 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elpc_netsim::Network;
    use elpc_pipeline::Pipeline;

    fn line3() -> Network {
        let mut b = Network::builder();
        let a = b.add_node(1.0).unwrap();
        let c = b.add_node(1.0).unwrap();
        let d = b.add_node(1.0).unwrap();
        b.add_link(a, c, 10.0, 0.1).unwrap();
        b.add_link(c, d, 10.0, 0.1).unwrap();
        b.build().unwrap()
    }

    fn pipe(n: usize) -> Pipeline {
        let stages: Vec<(f64, f64)> = (0..n.saturating_sub(2)).map(|_| (1.0, 100.0)).collect();
        Pipeline::from_stages(100.0, &stages, 1.0).unwrap()
    }

    #[test]
    fn instance_validates_endpoints() {
        let net = line3();
        let p = pipe(3);
        assert!(Instance::new(&net, &p, NodeId(0), NodeId(2)).is_ok());
        assert!(Instance::new(&net, &p, NodeId(0), NodeId(9)).is_err());
        assert!(Instance::new(&net, &p, NodeId(9), NodeId(0)).is_err());
    }

    #[test]
    fn hop_feasibility_screens_short_pipelines() {
        let net = line3();
        // 2 modules but dst is 2 hops away: infeasible either way (§4.3,
        // "the shortest end-to-end path is longer than the pipeline")
        let p2 = pipe(2);
        let inst = Instance::new(&net, &p2, NodeId(0), NodeId(2)).unwrap();
        assert!(!inst.hop_feasible(true));
        assert!(!inst.hop_feasible(false));
        // 3 modules fit exactly
        let p3 = pipe(3);
        let inst = Instance::new(&net, &p3, NodeId(0), NodeId(2)).unwrap();
        assert!(inst.hop_feasible(true));
        assert!(inst.hop_feasible(false));
        // 5 modules: fine with reuse, impossible without (only 3 nodes)
        let p5 = pipe(5);
        let inst = Instance::new(&net, &p5, NodeId(0), NodeId(2)).unwrap();
        assert!(inst.hop_feasible(true));
        assert!(!inst.hop_feasible(false));
    }

    #[test]
    fn same_endpoint_no_reuse_is_infeasible() {
        let net = line3();
        let p = pipe(3);
        let inst = Instance::new(&net, &p, NodeId(1), NodeId(1)).unwrap();
        assert!(!inst.hop_feasible(false));
        assert!(inst.hop_feasible(true)); // all modules on one node is fine
    }
}
