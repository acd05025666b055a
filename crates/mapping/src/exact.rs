//! Exact (exhaustive) solvers for both objectives.
//!
//! These exist to *verify* the rest of the crate, not to scale:
//!
//! * [`min_delay`] — branch-and-bound over all module walks; certifies the
//!   §3.1.1 optimality proof of the ELPC-delay DP on small instances.
//! * [`max_rate`] — enumerates every simple path with exactly `n` nodes and
//!   takes the best bottleneck; ground truth for the §3.1.2 NP-complete
//!   problem, used by experiment E8 to measure the heuristic's gap.
//! * [`hamiltonian_to_ensp`] — the paper's NP-completeness reduction
//!   (Hamiltonian Path → Exact-N-hop Shortest Path) as executable code.
//!
//! Both solvers take an explicit exploration budget and fail with
//! [`MappingError::BudgetExhausted`] rather than silently returning a
//! non-optimal answer.

use crate::{
    AssignmentSolution, CostModel, DelaySolution, Instance, Mapping, MappingError, RateSolution,
    Result, SolveContext,
};
use elpc_netgraph::algo::{for_each_simple_path_exact_nodes, hop_distances_rev, PathVisit};
use elpc_netgraph::NodeId;

/// Exploration limits for the exhaustive solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactLimits {
    /// Maximum DFS expansions (delay) or enumerated paths (rate).
    pub budget: usize,
}

impl Default for ExactLimits {
    fn default() -> Self {
        ExactLimits { budget: 2_000_000 }
    }
}

/// Exhaustive minimum end-to-end delay with node reuse.
///
/// Searches every assignment where module 0 sits on `src`, each later
/// module stays or moves to a neighbor, and the last module lands on `dst`,
/// pruned by (a) the best delay found so far and (b) remaining-hop
/// reachability of the destination.
pub fn min_delay(
    inst: &Instance<'_>,
    cost: &CostModel,
    limits: ExactLimits,
) -> Result<DelaySolution> {
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    let hops_to_dst = hop_distances_rev(net.graph(), inst.dst);

    struct Search<'s> {
        inst: &'s Instance<'s>,
        cost: &'s CostModel,
        hops_to_dst: &'s [Option<u32>],
        n: usize,
        best: f64,
        best_assignment: Option<Vec<NodeId>>,
        current: Vec<NodeId>,
        expansions: usize,
        budget: usize,
    }

    impl Search<'_> {
        fn dfs(&mut self, j: usize, node: NodeId, acc: f64) -> Result<()> {
            self.expansions += 1;
            if self.expansions > self.budget {
                return Err(MappingError::BudgetExhausted {
                    budget: self.budget,
                });
            }
            if acc >= self.best {
                return Ok(()); // bound
            }
            if j == self.n {
                if node == self.inst.dst {
                    self.best = acc;
                    self.best_assignment = Some(self.current.clone());
                }
                return Ok(());
            }
            // prune: dst must stay reachable in the remaining j..n-1 moves
            let remaining = (self.n - 1 - j) as u32 + 1; // moves left incl. this one
            match self.hops_to_dst[node.index()] {
                Some(d) if d <= remaining => {}
                _ => return Ok(()),
            }
            let net = self.inst.network;
            let pipe = self.inst.pipeline;
            let work = pipe.compute_work(j);
            let in_bytes = pipe.input_bytes(j);
            // stay on the current node
            self.current.push(node);
            self.dfs(j + 1, node, acc + work / net.power(node))?;
            self.current.pop();
            // or move over an outgoing edge
            for nb in net.graph().neighbors(node) {
                let t = acc
                    + work / net.power(nb.node)
                    + self.cost.edge_transfer_ms(net, nb.edge, in_bytes);
                self.current.push(nb.node);
                self.dfs(j + 1, nb.node, t)?;
                self.current.pop();
            }
            Ok(())
        }
    }

    let mut search = Search {
        inst,
        cost,
        hops_to_dst: &hops_to_dst,
        n,
        best: f64::INFINITY,
        best_assignment: None,
        current: vec![inst.src],
        expansions: 0,
        budget: limits.budget,
    };
    // module 0 contributes no compute; start directly at module 1
    search.dfs(1, inst.src, 0.0)?;

    match search.best_assignment {
        Some(a) => Ok(DelaySolution {
            mapping: Mapping::from_assignment(&a)?,
            delay_ms: search.best,
        }),
        None => Err(MappingError::Infeasible(format!(
            "no walk of {} modules from {} reaches {}",
            n, inst.src, inst.dst
        ))),
    }
}

/// Exhaustive maximum frame rate without node reuse: the optimal answer to
/// the NP-complete exact-`n`-node widest path problem, by enumeration.
pub fn max_rate(
    inst: &Instance<'_>,
    cost: &CostModel,
    limits: ExactLimits,
) -> Result<RateSolution> {
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    inst.ensure_distinct_hosts_feasible()?;
    let mut best: Option<(f64, Vec<NodeId>)> = None;
    let mut enumerated = 0usize;
    let mut out_of_budget = false;
    for_each_simple_path_exact_nodes(net.graph(), inst.src, inst.dst, n, |path| {
        enumerated += 1;
        if enumerated > limits.budget {
            out_of_budget = true;
            return PathVisit::Stop;
        }
        // bottleneck of the one-to-one mapping along `path`
        let mut bottleneck = 0.0_f64;
        for (j, &node) in path.iter().enumerate() {
            let work = pipe.compute_work(j);
            if work > 0.0 {
                bottleneck = bottleneck.max(work / net.power(node));
            }
            if j + 1 < path.len() {
                let bytes = pipe.module(j).output_bytes;
                let t = cost
                    .link_transfer_ms(net, node, path[j + 1], bytes)
                    .expect("enumerated paths follow edges");
                bottleneck = bottleneck.max(t);
            }
        }
        if best.as_ref().is_none_or(|(b, _)| bottleneck < *b) {
            best = Some((bottleneck, path.to_vec()));
        }
        PathVisit::Continue
    });
    if out_of_budget {
        return Err(MappingError::BudgetExhausted {
            budget: limits.budget,
        });
    }
    match best {
        Some((bottleneck, path)) => Ok(RateSolution {
            mapping: Mapping::from_assignment(&path)?,
            bottleneck_ms: bottleneck,
        }),
        None => Err(MappingError::Infeasible(format!(
            "no simple path of exactly {} nodes from {} to {}",
            n, inst.src, inst.dst
        ))),
    }
}

/// Exhaustive maximum frame rate under **routed** transport: enumerates
/// every assignment of pairwise-distinct hosts (endpoints pinned) and
/// scores each stage transfer at the best multi-hop route from the
/// context's shared metric closure. This is the ground truth for the
/// search space the [`crate::metaheuristic`] solvers and the routed rate
/// DP explore — `workloads::compare` uses it as the denominator of the
/// rate `quality_gap` column.
///
/// The interior assignment count is `P(k-2, n-2)`; the search refuses to
/// start (with [`MappingError::BudgetExhausted`]) when that product
/// exceeds `limits.budget`, and branch-and-bound on the monotone
/// bottleneck prunes the rest. Small instances only, by design.
pub fn max_rate_routed(ctx: &SolveContext<'_>, limits: ExactLimits) -> Result<AssignmentSolution> {
    let inst = ctx.instance();
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    let k = net.node_count();
    inst.ensure_distinct_hosts_feasible()?;
    // refuse un-prunably large spaces up front: P(k-2, n-2) assignments
    let mut count: usize = 1;
    for i in 0..n.saturating_sub(2) {
        count = count.saturating_mul(k - 2 - i);
        if count > limits.budget {
            return Err(MappingError::BudgetExhausted {
                budget: limits.budget,
            });
        }
    }

    struct Search<'c, 's> {
        ctx: &'c SolveContext<'s>,
        n: usize,
        k: usize,
        dst: NodeId,
        used: Vec<bool>,
        current: Vec<NodeId>,
        best: f64,
        best_assignment: Option<Vec<NodeId>>,
    }

    impl Search<'_, '_> {
        /// Extends the partial assignment ending at `node` (module `j - 1`)
        /// with a host for module `j`, carrying the bottleneck so far.
        fn dfs(&mut self, j: usize, node: NodeId, acc: f64) {
            if acc >= self.best {
                return; // the bottleneck only grows along a branch
            }
            let net = self.ctx.network();
            let pipe = self.ctx.pipeline();
            let bytes = pipe.module(j - 1).output_bytes;
            let tree = self.ctx.routed_from(node, bytes);
            if j == self.n - 1 {
                let work = pipe.compute_work(j);
                let t = tree.dist[self.dst.index()];
                if t.is_infinite() {
                    return;
                }
                let total = acc.max(t).max(if work > 0.0 {
                    work / net.power(self.dst)
                } else {
                    0.0
                });
                if total < self.best {
                    self.best = total;
                    let mut a = self.current.clone();
                    a.push(self.dst);
                    self.best_assignment = Some(a);
                }
                return;
            }
            let work = pipe.compute_work(j);
            for v in 0..self.k {
                if self.used[v] {
                    continue;
                }
                let vid = NodeId::from_index(v);
                if vid == self.dst {
                    continue; // the sink hosts only the final module
                }
                let t = tree.dist[v];
                if t.is_infinite() {
                    continue;
                }
                let b = acc.max(t).max(if work > 0.0 {
                    work / net.power(vid)
                } else {
                    0.0
                });
                self.used[v] = true;
                self.current.push(vid);
                self.dfs(j + 1, vid, b);
                self.current.pop();
                self.used[v] = false;
            }
        }
    }

    let mut used = vec![false; k];
    used[inst.src.index()] = true;
    let mut search = Search {
        ctx,
        n,
        k,
        dst: inst.dst,
        used,
        current: vec![inst.src],
        best: f64::INFINITY,
        best_assignment: None,
    };
    // module 0 contributes no compute (input_bytes(0) is structurally 0);
    // start directly at module 1, as min_delay does
    search.dfs(1, inst.src, 0.0);
    match search.best_assignment {
        Some(assignment) => Ok(AssignmentSolution {
            assignment,
            objective_ms: search.best,
        }),
        None => Err(MappingError::Infeasible(format!(
            "no routed placement of {} distinct hosts from {} to {}",
            n, inst.src, inst.dst
        ))),
    }
}

/// The paper's NP-completeness reduction, §3.1.2: given a graph `G` with
/// `n+1` vertices, `G` has a Hamiltonian path `v0 → vn` **iff** the
/// unit-weight copy of `G` has a simple `v0 → vn` path with exactly `n`
/// hops of total distance ≤ `n`.
///
/// With unit weights the distance bound is vacuous (every `n`-hop path has
/// distance exactly `n`), so the decision reduces to the *existence* of an
/// exact-`(n+1)`-node simple path — which this function decides by
/// enumeration, serving as an executable witness of the transformation
/// `f(I_HP) = I_ENSP`.
pub fn hamiltonian_to_ensp<Npay, Epay>(
    g: &elpc_netgraph::Graph<Npay, Epay>,
    v0: NodeId,
    vn: NodeId,
) -> bool {
    let n_nodes = g.node_count();
    let mut found = false;
    for_each_simple_path_exact_nodes(g, v0, vn, n_nodes, |p| {
        // total distance D = hops = n ≤ B = n always holds with unit weights
        debug_assert_eq!(p.len(), n_nodes);
        found = true;
        PathVisit::Stop
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use elpc_netgraph::Graph;
    use elpc_netsim::Network;
    use elpc_pipeline::{Module, Pipeline};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cost() -> CostModel {
        CostModel::default()
    }

    fn random_instance(seed: u64) -> (Network, Pipeline) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = rng.gen_range(4..8);
        let links = rng.gen_range(k - 1..=k * (k - 1) / 2);
        let topo = elpc_netgraph::gen::random_connected(k, links, &mut rng).unwrap();
        let mut rng2 = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let powers: Vec<f64> = (0..k).map(|_| rng2.gen_range(10.0..1000.0)).collect();
        let net = Network::from_topology(
            &topo,
            |i| elpc_netsim::Node::with_power(powers[i]),
            |_, _| elpc_netsim::Link::new(rng2.gen_range(1.0..1000.0), rng2.gen_range(0.01..5.0)),
        )
        .unwrap();
        let n = rng.gen_range(2..=k.min(5));
        let spec = elpc_pipeline::gen::PipelineSpec {
            modules: n,
            ..Default::default()
        };
        let pipe = spec.generate(&mut rng).unwrap();
        (net, pipe)
    }

    #[test]
    fn exact_delay_matches_elpc_dp_on_random_instances() {
        let mut agreements = 0;
        for seed in 0..40u64 {
            let (net, pipe) = random_instance(seed);
            let k = net.node_count();
            let src = NodeId(0);
            let dst = NodeId((k - 1) as u32);
            let inst = Instance::new(&net, &pipe, src, dst).unwrap();
            let dp = crate::elpc_delay::solve(&inst, &cost());
            let ex = min_delay(&inst, &cost(), ExactLimits::default());
            match (dp, ex) {
                (Ok(dp), Ok(ex)) => {
                    assert!(
                        (dp.delay_ms - ex.delay_ms).abs() <= 1e-6 * ex.delay_ms.max(1.0),
                        "seed {seed}: DP {} vs exact {}",
                        dp.delay_ms,
                        ex.delay_ms
                    );
                    agreements += 1;
                }
                (Err(MappingError::Infeasible(_)), Err(MappingError::Infeasible(_))) => {}
                (dp, ex) => panic!("seed {seed}: disagreement {dp:?} vs {ex:?}"),
            }
        }
        assert!(agreements >= 10, "too few feasible instances exercised");
    }

    #[test]
    fn exact_rate_lower_bounds_the_heuristic_on_random_instances() {
        let mut solved = 0;
        for seed in 100..140u64 {
            let (net, pipe) = random_instance(seed);
            let k = net.node_count();
            let inst = Instance::new(&net, &pipe, NodeId(0), NodeId((k - 1) as u32)).unwrap();
            let ex = max_rate(&inst, &cost(), ExactLimits::default());
            let heur = crate::elpc_rate::solve(&inst, &cost());
            match (ex, heur) {
                (Ok(ex), Ok(heur)) => {
                    // exact is optimal: never worse than the heuristic
                    assert!(
                        ex.bottleneck_ms <= heur.bottleneck_ms + 1e-9,
                        "seed {seed}: exact {} > heuristic {}",
                        ex.bottleneck_ms,
                        heur.bottleneck_ms
                    );
                    solved += 1;
                }
                (Err(MappingError::Infeasible(_)), Err(MappingError::Infeasible(_))) => {}
                // the heuristic may miss a feasible path the exact finds —
                // that is precisely its documented failure mode
                (Ok(_), Err(MappingError::Infeasible(_))) => {}
                (ex, heur) => panic!("seed {seed}: unexpected {ex:?} vs {heur:?}"),
            }
        }
        assert!(solved >= 10, "too few feasible instances exercised");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (net, pipe) = random_instance(7);
        let inst = Instance::new(
            &net,
            &pipe,
            NodeId(0),
            NodeId((net.node_count() - 1) as u32),
        )
        .unwrap();
        let r = min_delay(&inst, &cost(), ExactLimits { budget: 3 });
        assert!(matches!(
            r,
            Err(MappingError::BudgetExhausted { budget: 3 })
        ));
    }

    #[test]
    fn hamiltonian_reduction_agrees_with_known_graphs() {
        // P4 path graph: Hamiltonian path 0→3 exists
        let mut g: Graph<(), ()> = Graph::new();
        let ns: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        for w in ns.windows(2) {
            g.add_undirected_edge(w[0], w[1], ()).unwrap();
        }
        assert!(hamiltonian_to_ensp(&g, ns[0], ns[3]));
        // endpoints adjacent in the middle: no Hamiltonian 1→2 path in P4
        assert!(!hamiltonian_to_ensp(&g, ns[1], ns[2]));

        // star K1,3: no Hamiltonian path between leaves
        let mut g: Graph<(), ()> = Graph::new();
        let hub = g.add_node(());
        let l1 = g.add_node(());
        let l2 = g.add_node(());
        let l3 = g.add_node(());
        for l in [l1, l2, l3] {
            g.add_undirected_edge(hub, l, ()).unwrap();
        }
        assert!(!hamiltonian_to_ensp(&g, l1, l2));

        // K4: Hamiltonian paths everywhere
        let mut g: Graph<(), ()> = Graph::new();
        let ns: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_undirected_edge(ns[i], ns[j], ()).unwrap();
            }
        }
        assert!(hamiltonian_to_ensp(&g, ns[0], ns[2]));
    }

    #[test]
    fn exact_rate_on_a_diamond_picks_the_wider_route() {
        let mut b = Network::builder();
        let s = b.add_node(1000.0).unwrap();
        let x = b.add_node(1000.0).unwrap();
        let y = b.add_node(1000.0).unwrap();
        let d = b.add_node(1000.0).unwrap();
        b.add_link(s, x, 10.0, 0.1).unwrap();
        b.add_link(x, d, 10.0, 0.1).unwrap();
        b.add_link(s, y, 100.0, 0.1).unwrap();
        b.add_link(y, d, 100.0, 0.1).unwrap();
        let net = b.build().unwrap();
        let pipe = Pipeline::new(vec![
            Module::new(0.0, 1e6),
            Module::new(0.001, 1e6),
            Module::new(0.001, 0.0),
        ])
        .unwrap();
        let inst = Instance::new(&net, &pipe, s, d).unwrap();
        let sol = max_rate(&inst, &cost(), ExactLimits::default()).unwrap();
        assert_eq!(sol.mapping.path()[1], y);
    }

    #[test]
    fn routed_rate_exact_lower_bounds_routed_heuristics() {
        for seed in 200..230u64 {
            let (net, pipe) = random_instance(seed);
            let k = net.node_count();
            let inst = Instance::new(&net, &pipe, NodeId(0), NodeId((k - 1) as u32)).unwrap();
            let ctx = SolveContext::new(inst, cost());
            let ex = max_rate_routed(&ctx, ExactLimits::default());
            let Ok(ex) = ex else { continue };
            // brute force agrees with the routed re-evaluation of its answer
            let re = crate::routed::routed_bottleneck_ms_ctx(&ctx, &ex.assignment, true).unwrap();
            assert!((re - ex.objective_ms).abs() <= 1e-9 * ex.objective_ms.max(1.0));
            // the DP heuristic explores the same space: never better
            if let Ok(dp) = crate::elpc_rate::solve_routed(&inst, &cost()) {
                assert!(
                    ex.objective_ms <= dp.objective_ms + 1e-9,
                    "seed {seed}: exact {} > DP {}",
                    ex.objective_ms,
                    dp.objective_ms
                );
            }
            // the strict exact optimum is a restriction of the routed space
            if let Ok(strict) = max_rate(&inst, &cost(), ExactLimits::default()) {
                assert!(ex.objective_ms <= strict.bottleneck_ms + 1e-9);
            }
        }
    }

    #[test]
    fn routed_rate_exact_refuses_oversized_spaces() {
        let (net, pipe) = random_instance(3);
        let k = net.node_count();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId((k - 1) as u32)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        // any pipeline of ≥ 3 modules on a >3-node network has an interior
        // assignment count above 1, so the budget guard must refuse
        assert!(pipe.len() >= 3 && k > 3, "fixture must exercise the guard");
        assert!(matches!(
            max_rate_routed(&ctx, ExactLimits { budget: 1 }),
            Err(MappingError::BudgetExhausted { budget: 1 })
        ));
    }

    #[test]
    fn exact_solvers_report_infeasibility() {
        // 2-node network, 3-module no-reuse pipeline
        let mut b = Network::builder();
        let s = b.add_node(10.0).unwrap();
        let d = b.add_node(10.0).unwrap();
        b.add_link(s, d, 10.0, 0.1).unwrap();
        let net = b.build().unwrap();
        let pipe = Pipeline::from_stages(1e4, &[(1.0, 1e3)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, s, d).unwrap();
        assert!(matches!(
            max_rate(&inst, &cost(), ExactLimits::default()),
            Err(MappingError::Infeasible(_))
        ));
        // delay-with-reuse is feasible on the same instance
        assert!(min_delay(&inst, &cost(), ExactLimits::default()).is_ok());
    }
}
