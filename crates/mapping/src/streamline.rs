//! The Streamline baseline (§3.2), adapted to linear pipelines.
//!
//! Agarwalla et al.'s Streamline schedules a coarse-grain dataflow graph
//! onto grid resources as "a global greedy algorithm that expects to
//! maximize the throughput of an application by assigning the best
//! resources to the most needy stages in terms of computation and
//! communication requirements at each step". Its environment model is a
//! resource mesh ("n resources and n×n communication links"), so on the
//! paper's arbitrary sparse topologies its placements need not be adjacent
//! and are evaluated under the routed-transport relaxation
//! ([`crate::routed`]).
//!
//! Adaptation to linear pipelines (the form the ELPC paper benchmarks):
//!
//! 1. rank stages by *neediness* — estimated compute time on an average
//!    node plus estimated transfer time of the stage's incoming and
//!    outgoing data over an average link;
//! 2. walk stages in decreasing need; give each the *best available* node,
//!    scored by actual compute time plus routed transfers to whichever
//!    pipeline neighbors are already placed (the endpoints are always
//!    placed: §4.1 pins module 0 to the source and module `n-1` to the
//!    destination);
//! 3. delay mode allows co-location (node reuse); rate mode consumes each
//!    node (no reuse) and scores with `max` instead of `+`, matching the
//!    Eq. 2 objective.
//!
//! Complexity: `O(m · (k log k + |E|))` with the per-stage Dijkstra pair —
//! the `O(m·n²)` of §3.2 specialized to sparse graphs.

use crate::routed::{routed_bottleneck_ms_ctx, routed_delay_ms_ctx};
use crate::{AssignmentSolution, CostModel, Instance, MappingError, Result, SolveContext};
use elpc_netgraph::NodeId;

/// Streamline for the interactive (minimum delay, node-reuse) objective,
/// with a transient context (cold path).
pub fn solve_min_delay(inst: &Instance<'_>, cost: &CostModel) -> Result<AssignmentSolution> {
    solve_min_delay_ctx(&SolveContext::new(*inst, *cost))
}

/// Streamline minimum delay over a shared [`SolveContext`].
pub fn solve_min_delay_ctx(ctx: &SolveContext<'_>) -> Result<AssignmentSolution> {
    let assignment = place(ctx, Mode::Delay)?;
    let objective_ms = routed_delay_ms_ctx(ctx, &assignment)?;
    Ok(AssignmentSolution {
        assignment,
        objective_ms,
    })
}

/// Streamline for the streaming (maximum frame rate, no-reuse) objective,
/// with a transient context (cold path).
pub fn solve_max_rate(inst: &Instance<'_>, cost: &CostModel) -> Result<AssignmentSolution> {
    solve_max_rate_ctx(&SolveContext::new(*inst, *cost))
}

/// Streamline maximum frame rate over a shared [`SolveContext`].
pub fn solve_max_rate_ctx(ctx: &SolveContext<'_>) -> Result<AssignmentSolution> {
    ctx.instance().ensure_distinct_hosts_feasible()?;
    let assignment = place(ctx, Mode::Rate)?;
    let objective_ms = routed_bottleneck_ms_ctx(ctx, &assignment, true)?;
    Ok(AssignmentSolution {
        assignment,
        objective_ms,
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Delay,
    Rate,
}

fn place(ctx: &SolveContext<'_>, mode: Mode) -> Result<Vec<NodeId>> {
    let inst = ctx.instance();
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    let k = net.node_count();

    // --- step 1: neediness ranking over the unpinned stages 1..n-1 ---
    let avg_power = net.node_ids().map(|v| net.power(v)).sum::<f64>() / k as f64;
    let mut bw_sum = 0.0;
    let mut bw_count = 0usize;
    for (_, e) in net.graph().edges() {
        bw_sum += e.payload.bw_mbps;
        bw_count += 1;
    }
    let avg_bw = if bw_count > 0 {
        bw_sum / bw_count as f64
    } else {
        1.0
    };
    let est_transfer = |bytes: f64| -> f64 { elpc_netsim::units::serialization_ms(bytes, avg_bw) };

    let mut order: Vec<usize> = (1..n - 1).collect();
    let need = |j: usize| -> f64 {
        pipe.compute_work(j) / avg_power
            + est_transfer(pipe.input_bytes(j))
            + est_transfer(pipe.module(j).output_bytes)
    };
    order.sort_by(|&a, &b| need(b).partial_cmp(&need(a)).expect("needs are finite"));

    // --- step 2: greedy global placement ---
    let mut assignment: Vec<Option<NodeId>> = vec![None; n];
    assignment[0] = Some(inst.src);
    assignment[n - 1] = Some(inst.dst);
    let mut used = vec![false; k];
    if mode == Mode::Rate {
        used[inst.src.index()] = true;
        used[inst.dst.index()] = true;
    }

    for &j in &order {
        // routed distances from the placed predecessor / to the placed
        // successor, one metric-closure tree each (the network is
        // symmetric, so the successor's distances are computed from the
        // successor's side); trees are shared with every other solver on
        // this context
        let in_bytes = pipe.input_bytes(j);
        let out_bytes = pipe.module(j).output_bytes;
        let from_pred = assignment[j - 1].map(|u| ctx.routed_from(u, in_bytes));
        let to_succ = assignment[j + 1].map(|w| ctx.routed_from(w, out_bytes));
        let work = pipe.compute_work(j);
        let mut best: Option<(f64, NodeId)> = None;
        for v in net.node_ids() {
            if mode == Mode::Rate && used[v.index()] {
                continue;
            }
            let compute = work / net.power(v);
            let pred_t = from_pred.as_ref().map(|d| d.dist[v.index()]);
            let succ_t = to_succ.as_ref().map(|d| d.dist[v.index()]);
            if pred_t.is_some_and(f64::is_infinite) || succ_t.is_some_and(f64::is_infinite) {
                continue;
            }
            let score = match mode {
                Mode::Delay => compute + pred_t.unwrap_or(0.0) + succ_t.unwrap_or(0.0),
                Mode::Rate => compute
                    .max(pred_t.unwrap_or(0.0))
                    .max(succ_t.unwrap_or(0.0)),
            };
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, v));
            }
        }
        let Some((_, v)) = best else {
            return Err(MappingError::Infeasible(format!(
                "Streamline found no available node for stage {j}"
            )));
        };
        assignment[j] = Some(v);
        if mode == Mode::Rate {
            used[v.index()] = true;
        }
    }

    Ok(assignment
        .into_iter()
        .map(|a| a.expect("all stages placed"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routed::{routed_bottleneck_ms, routed_delay_ms};
    use elpc_netsim::Network;
    use elpc_pipeline::{Module, Pipeline};

    fn cost() -> CostModel {
        CostModel::default()
    }

    /// Well-connected 5-node network with one standout compute node.
    fn net5() -> Network {
        let mut b = Network::builder();
        let powers = [10.0, 10.0, 1000.0, 10.0, 10.0];
        let ns: Vec<NodeId> = powers.iter().map(|&p| b.add_node(p).unwrap()).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_link(ns[i], ns[j], 100.0, 0.5).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn pipe(n: usize) -> Pipeline {
        let stages: Vec<(f64, f64)> = (0..n - 2).map(|i| (1.0 + i as f64, 1e5)).collect();
        Pipeline::from_stages(1e6, &stages, 1.0).unwrap()
    }

    #[test]
    fn neediest_stage_gets_the_best_node() {
        let net = net5();
        // 4 modules; stage 2 (c=2) is needier than stage 1 (c=1)
        let p = pipe(4);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(4)).unwrap();
        let sol = solve_min_delay(&inst, &cost()).unwrap();
        // the standout node 2 hosts the neediest middle stage
        assert!(sol.assignment[1..3].contains(&NodeId(2)));
        assert_eq!(sol.assignment[0], NodeId(0));
        assert_eq!(sol.assignment[3], NodeId(4));
    }

    #[test]
    fn rate_mode_respects_no_reuse() {
        let net = net5();
        let p = pipe(5);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(4)).unwrap();
        let sol = solve_max_rate(&inst, &cost()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for &n in &sol.assignment {
            assert!(seen.insert(n), "node {n} reused");
        }
        assert!(sol.objective_ms > 0.0);
        assert!(sol.frame_rate_fps().is_finite());
    }

    #[test]
    fn delay_mode_may_reuse_nodes() {
        // tiny network, long pipeline → reuse is forced
        let mut b = Network::builder();
        let s = b.add_node(100.0).unwrap();
        let d = b.add_node(100.0).unwrap();
        b.add_link(s, d, 100.0, 0.5).unwrap();
        let net = b.build().unwrap();
        let p = pipe(6);
        let inst = Instance::new(&net, &p, s, d).unwrap();
        let sol = solve_min_delay(&inst, &cost()).unwrap();
        assert_eq!(sol.assignment.len(), 6);
        // with 2 nodes and 6 modules, some node repeats
        let distinct: std::collections::BTreeSet<_> = sol.assignment.iter().collect();
        assert!(distinct.len() < 6);
    }

    #[test]
    fn rate_mode_rejects_oversized_pipelines() {
        let mut b = Network::builder();
        let s = b.add_node(100.0).unwrap();
        let d = b.add_node(100.0).unwrap();
        b.add_link(s, d, 100.0, 0.5).unwrap();
        let net = b.build().unwrap();
        let p = pipe(3);
        let inst = Instance::new(&net, &p, s, d).unwrap();
        assert!(matches!(
            solve_max_rate(&inst, &cost()),
            Err(MappingError::Infeasible(_))
        ));
    }

    #[test]
    fn objective_agrees_with_routed_reevaluation() {
        let net = net5();
        let p = pipe(5);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(4)).unwrap();
        let sol = solve_min_delay(&inst, &cost()).unwrap();
        let re = routed_delay_ms(&inst, &cost(), &sol.assignment).unwrap();
        assert!((sol.objective_ms - re).abs() < 1e-9);
        let sol = solve_max_rate(&inst, &cost()).unwrap();
        let re = routed_bottleneck_ms(&inst, &cost(), &sol.assignment, true).unwrap();
        assert!((sol.objective_ms - re).abs() < 1e-9);
    }

    #[test]
    fn deterministic_output() {
        let net = net5();
        let p = pipe(5);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(4)).unwrap();
        assert_eq!(
            solve_min_delay(&inst, &cost()).unwrap(),
            solve_min_delay(&inst, &cost()).unwrap()
        );
    }

    #[test]
    fn two_module_pipeline_needs_no_placement() {
        let net = net5();
        let p = Pipeline::new(vec![Module::new(0.0, 1e5), Module::new(1.0, 0.0)]).unwrap();
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(4)).unwrap();
        let sol = solve_min_delay(&inst, &cost()).unwrap();
        assert_eq!(sol.assignment, vec![NodeId(0), NodeId(4)]);
    }
}
